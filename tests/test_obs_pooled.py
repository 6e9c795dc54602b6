"""A pooled sweep is traced whole: worker spans and slot events come home.

Pool workers never write into the sinks they inherit through fork;
each captures its block's spans and slot events, and the parent
re-emits them.  These tests compare a pooled traced sweep against the
same sweep run in-process, and pin the ``workers=None`` rule.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import Counter

import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs import spans, trace
from repro.obs.events import RunComplete, StoreAccess, event_to_dict
from repro.obs.export import SpanJsonlSink, read_spans_jsonl
from repro.obs.spans import span_from_dict
from repro.obs.trace import JsonlSink, read_jsonl
from repro.sim.config import SimulationConfig
from repro.sim.runner import sweep_grid

CFG = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3))
RHOS = [20.0, 30.0]
PS = [0.3, 0.7]
REPS = 5  # 2 x 2 points of 5 runs: 4 blocks, enough for a pool
SEED = 20050113


def _traced_sweep(tmp_path, name, workers):
    """Run the grid through a store under a span sink and an event sink."""
    span_path = tmp_path / f"{name}-spans.jsonl"
    event_path = tmp_path / f"{name}-events.jsonl"
    with spans.capture_spans(SpanJsonlSink(span_path)), trace.capture(
        JsonlSink(event_path)
    ):
        grid = sweep_grid(
            CFG, RHOS, PS, REPS, SEED, workers=workers, store=tmp_path / name
        )
    # Every line decodes.
    recorded = [
        span_from_dict(json.loads(line))
        for line in span_path.read_text().splitlines()
    ]
    return grid, recorded, list(read_jsonl(event_path))


def _block_subtrees(recorded):
    """The spans of each block: runner.block and its descendants."""
    by_id = {s.span_id: s for s in recorded}

    def block_of(s):
        while s is not None:
            if s.name == "runner.block":
                return s.span_id
            s = by_id.get(s.parent_id)
        return None

    return [s for s in recorded if block_of(s) is not None]


def _span_shapes(recorded):
    return Counter(
        (s.name, tuple(sorted(s.counters.items()))) for s in _block_subtrees(recorded)
    )


def _run_blocks(events):
    """Slot events split into runs at RunComplete, then into blocks."""
    runs, current = [], []
    for event in events:
        if isinstance(event, StoreAccess):
            continue
        current.append(json.dumps(event_to_dict(event), sort_keys=True))
        if isinstance(event, RunComplete):
            runs.append(tuple(current))
            current = []
    assert current == []
    return [tuple(runs[i : i + REPS]) for i in range(0, len(runs), REPS)]


class TestPooledTraceIsWhole:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pooled-trace")
        serial = _traced_sweep(tmp, "serial", workers=1)
        pooled = _traced_sweep(tmp, "pooled", workers=2)
        assert multiprocessing.active_children() == []  # the pool is joined
        return serial, pooled

    def test_ids_unique_and_links_resolve(self, runs):
        _, (_, recorded, _) = runs
        ids = [s.span_id for s in recorded]
        assert len(set(ids)) == len(ids)
        known = set(ids)
        assert all(s.parent_id in known for s in recorded if s.parent_id is not None)
        assert [s.name for s in recorded if s.parent_id is None] == ["sweep.grid"]

    def test_one_block_span_per_block_from_workers(self, runs):
        _, (_, recorded, _) = runs
        blocks = [s for s in recorded if s.name == "runner.block"]
        assert len(blocks) == len(RHOS) * len(PS)
        assert sum(s.counters["reps"] for s in blocks) == len(RHOS) * len(PS) * REPS
        assert os.getpid() not in {s.pid for s in blocks}
        by_id = {s.span_id: s for s in recorded}
        assert {by_id[s.parent_id].name for s in blocks} == {"store.execute"}

    def test_worker_spans_lie_within_their_round(self, runs):
        _, (_, recorded, _) = runs
        by_id = {s.span_id: s for s in recorded}
        workers = [s for s in recorded if s.pid != os.getpid()]
        assert workers
        for s in workers:
            round_ = by_id[s.parent_id]
            while round_.name != "store.execute":
                round_ = by_id[round_.parent_id]
            assert round_.pid == os.getpid()
            assert round_.start <= s.start
            assert s.start + s.dur <= round_.start + round_.dur

    def test_worker_spans_match_serial(self, runs):
        (_, serial, _), (_, pooled, _) = runs
        assert _span_shapes(pooled) == _span_shapes(serial)
        assert {s.pid for s in serial} == {os.getpid()}

    def test_events_match_serial_block_by_block(self, runs):
        """Each block's runs stay contiguous and in replication order;
        blocks arrive in completion order, not grid order."""
        (_, _, serial), (_, _, pooled) = runs
        assert sorted(_run_blocks(pooled)) == sorted(_run_blocks(serial))
        assert len(_run_blocks(serial)) == len(RHOS) * len(PS)

        def accesses(events):
            return Counter(
                (e.op, e.key) for e in events if isinstance(e, StoreAccess)
            )

        assert accesses(pooled) == accesses(serial)

    def test_results_match_serial(self, runs):
        (serial, _, _), (pooled, _, _) = runs
        assert serial.keys() == pooled.keys()
        for point in serial:
            for a, b in zip(serial[point], pooled[point], strict=True):
                assert a.seed_entropy == b.seed_entropy
                assert (a.new_informed_by_slot == b.new_informed_by_slot).all()


class TestInheritedSinks:
    def test_unreferenced_file_sinks_write_each_line_once(self, tmp_path):
        """File sinks attached with no other reference.  Had a worker let
        its copies be collected, closing them would write the lines the
        parent had buffered before the fork into the files again."""
        prof, tracer = spans.profiler(), trace.get_tracer()
        prof.attach(SpanJsonlSink(tmp_path / "spans.jsonl"))
        trace.attach(JsonlSink(tmp_path / "events.jsonl"))
        try:
            sweep_grid(CFG, RHOS, PS, REPS, SEED, workers=2, store=tmp_path / "s")
        finally:
            for sink in prof.sinks + tracer.sinks:
                prof.detach(sink)
                tracer.detach(sink)
                sink.close()
        recorded = list(read_spans_jsonl(tmp_path / "spans.jsonl"))
        ids = [s.span_id for s in recorded]
        assert len(set(ids)) == len(ids)
        assert len([s for s in recorded if s.name == "store.lookup"]) == 1
        misses = [
            e
            for e in read_jsonl(tmp_path / "events.jsonl")
            if isinstance(e, StoreAccess) and e.op == "miss"
        ]
        assert len(misses) == len(RHOS) * len(PS) * REPS


class TestAutoWorkers:
    """``workers=None`` (the default) sizes the pool to the usable CPUs."""

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with spans.capture_spans() as buf:
            sweep_grid(CFG, RHOS, PS, REPS, SEED)
        assert len(buf.named("runner.block")) == len(RHOS) * len(PS)
        assert {s.pid for s in buf.spans} == {os.getpid()}

    def test_two_usable_cpus_fork_a_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with spans.capture_spans() as buf:
            sweep_grid(CFG, RHOS, PS, REPS, SEED)
        blocks = buf.named("runner.block")
        assert len(blocks) == len(RHOS) * len(PS)
        assert os.getpid() not in {s.pid for s in blocks}
        assert multiprocessing.active_children() == []
