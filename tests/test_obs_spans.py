"""The span profiler: nesting, counters, neutrality, and instrumentation."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs import spans
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast, run_broadcast_batch
from repro.sim.runner import replicate, sweep_grid
from tests.test_obs_neutrality import assert_identical

SEED = 20050113
CFG = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3))


class TestProfilerCore:
    def test_disabled_by_default(self):
        prof = spans.profiler()
        assert prof.enabled is False
        assert prof.sinks == ()

    def test_begin_end_roundtrip(self):
        with spans.capture_spans() as buf:
            h = spans.profiler().begin("work", "test")
            event = h.end(items=3)
        assert event.name == "work"
        assert event.cat == "test"
        assert event.dur >= 0
        assert event.counters == {"items": 3.0}
        assert event.parent_id is None
        assert buf.named("work") == [event]

    def test_nesting_sets_parent_links(self):
        prof = spans.profiler()
        with spans.capture_spans() as buf:
            outer = prof.begin("outer")
            inner = prof.begin("inner")
            inner.end()
            outer.end()
        (ev_inner,) = buf.named("inner")
        (ev_outer,) = buf.named("outer")
        assert ev_inner.parent_id == ev_outer.span_id
        assert ev_outer.parent_id is None
        # Children close first, so completion order is inner then outer.
        assert [s.name for s in buf.spans] == ["inner", "outer"]

    def test_span_ids_unique_and_monotonic(self):
        prof = spans.profiler()
        with spans.capture_spans() as buf:
            for _ in range(5):
                prof.begin("a").end()
        ids = [s.span_id for s in buf.spans]
        assert len(set(ids)) == 5
        assert ids == sorted(ids)

    def test_add_accumulates_counters(self):
        prof = spans.profiler()
        with spans.capture_spans() as buf:
            h = prof.begin("sum")
            h.add(n=2)
            h.add(n=3, other=1)
            h.end(n=5)
        (ev,) = buf.spans
        assert ev.counters == {"n": 10.0, "other": 1.0}

    def test_raising_region_never_emits(self):
        prof = spans.profiler()
        with spans.capture_spans() as buf:
            outer = prof.begin("outer")
            prof.begin("abandoned")  # never ended (the region raised)
            outer.end()
            after = prof.begin("after")
            after.end()
        names = [s.name for s in buf.spans]
        assert "abandoned" not in names
        # The abandoned child was discarded from the stack, so "after"
        # is a root, not a child of the dead handle.
        (ev_after,) = buf.named("after")
        assert ev_after.parent_id is None

    def test_threads_get_independent_stacks(self):
        prof = spans.profiler()
        with spans.capture_spans() as buf:
            root = prof.begin("main-root")

            def work():
                h = prof.begin("thread-root")
                h.end()

            t = threading.Thread(target=work)
            t.start()
            t.join()
            root.end()
        (ev_thread,) = buf.named("thread-root")
        (ev_main,) = buf.named("main-root")
        # The other thread's span must NOT parent onto this thread's.
        assert ev_thread.parent_id is None
        assert ev_thread.tid != ev_main.tid
        assert ev_thread.pid == ev_main.pid

    def test_gathered_coroutines_get_independent_stacks(self):
        prof = spans.profiler()

        async def branch(name: str) -> None:
            h = prof.begin(name)
            await asyncio.sleep(0)  # the other branch opens its span here
            inner = prof.begin(f"{name}-inner")
            await asyncio.sleep(0)
            inner.end()
            h.end()

        async def main() -> None:
            outer = prof.begin("outer")
            await asyncio.gather(branch("a"), branch("b"))
            outer.end()

        with spans.capture_spans() as buf:
            asyncio.run(main())
        (ev_outer,) = buf.named("outer")
        for name in ("a", "b"):
            (ev,) = buf.named(name)
            (ev_inner,) = buf.named(f"{name}-inner")
            # Each coroutine nests under the span open where it was
            # created, never under its sibling on the same thread.
            assert ev.parent_id == ev_outer.span_id
            assert ev_inner.parent_id == ev.span_id

    def test_capture_detaches_on_exit(self):
        prof = spans.profiler()
        with spans.capture_spans():
            assert prof.enabled
        assert not prof.enabled
        assert prof.sinks == ()

    def test_capture_detaches_on_error(self):
        prof = spans.profiler()
        with pytest.raises(RuntimeError):
            with spans.capture_spans():
                raise RuntimeError("boom")
        assert not prof.enabled


class TestConvenienceForms:
    def test_span_context_manager(self):
        with spans.capture_spans() as buf:
            with spans.span("cm", "test") as h:
                assert h is not None
                h.add(x=1)
        (ev,) = buf.named("cm")
        assert ev.counters == {"x": 1.0}

    def test_span_yields_none_when_disabled(self):
        with spans.span("noop") as h:
            assert h is None

    def test_traced_decorator(self):
        @spans.traced(cat="test")
        def fn(a, b=1):
            return a + b

        assert fn(2, b=3) == 5  # disabled: plain call-through
        with spans.capture_spans() as buf:
            assert fn(2, b=3) == 5
        (ev,) = buf.spans
        assert ev.name.endswith("fn")
        assert ev.cat == "test"

    def test_dict_roundtrip(self):
        with spans.capture_spans() as buf:
            spans.profiler().begin("rt", "c").end(k=2)
        (ev,) = buf.spans
        assert spans.span_from_dict(spans.span_to_dict(ev)) == ev


class TestNeutrality:
    """Spans enabled must be bit-identical to spans disabled."""

    def test_engine_run_identical(self):
        plain = run_broadcast(ProbabilisticRelay(0.6), CFG, SEED)
        with spans.capture_spans() as buf:
            profiled = run_broadcast(ProbabilisticRelay(0.6), CFG, SEED)
        assert len(buf) > 0
        assert_identical(plain, profiled)

    def test_replicate_identical(self):
        plain = replicate(ProbabilisticRelay(0.5), CFG, 4, seed=SEED)
        with spans.capture_spans() as buf:
            profiled = replicate(ProbabilisticRelay(0.5), CFG, 4, seed=SEED)
        assert buf.named("runner.replicate")
        for a, b in zip(plain, profiled):
            assert_identical(a, b)

    def test_sweep_grid_identical_with_store(self, tmp_path):
        plain = sweep_grid(CFG, [20.0], [0.3, 0.7], 3, seed=SEED)
        with spans.capture_spans() as buf:
            stored = sweep_grid(
                CFG, [20.0], [0.3, 0.7], 3, seed=SEED, store=tmp_path / "store"
            )
        assert buf.named("sweep.grid")
        assert buf.named("store.put")
        for point in plain:
            for a, b in zip(plain[point], stored[point]):
                assert_identical(a, b)


class TestInstrumentation:
    def test_spans_do_not_force_per_run_engine(self, tmp_path):
        """Unlike slot tracing, span profiling keeps the batched engine."""
        with spans.capture_spans() as buf:
            sweep_grid(CFG, [20.0], [0.5], 4, seed=SEED)
        names = {s.name for s in buf.spans}
        assert "engine.run_batch" in names
        assert "engine.run" not in names

    def test_sweep_span_tree_shape(self, tmp_path):
        with spans.capture_spans() as buf:
            sweep_grid(
                CFG, [20.0], [0.3, 0.7], 3, seed=SEED, store=tmp_path / "store"
            )
        (root,) = buf.named("sweep.grid")
        assert root.parent_id is None
        assert root.counters["tasks"] == 6.0
        by_id = {s.span_id: s for s in buf.spans}
        for s in buf.spans:
            if s is root:
                continue
            # Every other span sits under the root via parent links.
            node = s
            hops = 0
            while node.parent_id is not None and hops < 20:
                node = by_id[node.parent_id]
                hops += 1
            assert node is root
        # The layers the report attributes time to are all present.
        cats = {s.cat for s in buf.spans}
        assert {"runner", "store", "engine", "network"} <= cats

    def test_engine_run_spans_and_counters(self):
        """A single run reports the one slot loop's spans: a block of one."""
        with spans.capture_spans() as buf:
            result = run_broadcast(ProbabilisticRelay(0.6), CFG, SEED)
        (run_span,) = buf.named("engine.run_batch")
        (loop_span,) = buf.named("engine.slot_loop")
        assert loop_span.parent_id == run_span.span_id
        assert run_span.counters["reps"] == 1.0
        assert loop_span.counters["collisions"] == float(result.collisions)
        (deploy,) = buf.named("engine.deploy_batch")
        assert deploy.counters["nodes"] > 0
        (build,) = buf.named("topology.build")
        assert build.cat == "network"
        assert build.parent_id == deploy.span_id
        assert build.counters["nodes"] == deploy.counters["nodes"]
        assert "edges" not in build.counters  # no edge list is built
        assert loop_span.counters["pairs"] > 0

    def test_batched_topology_build_span(self):
        seeds = [SEED + i for i in range(3)]
        with spans.capture_spans() as buf:
            run_broadcast_batch(ProbabilisticRelay(0.6), CFG, seeds)
        (deploy,) = buf.named("engine.deploy_batch")
        (build,) = buf.named("topology.build")
        assert build.cat == "network"
        assert build.parent_id == deploy.span_id
        # Counters describe the whole block: the per-run node counts
        # and resolved neighbor pairs summed.
        with spans.capture_spans() as per_run:
            for s in seeds:
                run_broadcast(ProbabilisticRelay(0.6), CFG, s)
        for name, key in (("topology.build", "nodes"), ("engine.slot_loop", "pairs")):
            (block,) = buf.named(name)
            singles = per_run.named(name)
            assert block.counters[key] == sum(s.counters[key] for s in singles)

    def test_warm_store_lookup_counters(self, tmp_path):
        store = tmp_path / "store"
        sweep_grid(CFG, [20.0], [0.5], 3, seed=SEED, store=store)
        with spans.capture_spans() as buf:
            sweep_grid(CFG, [20.0], [0.5], 3, seed=SEED, store=store)
        (lookup,) = buf.named("store.lookup")
        assert lookup.counters["hits"] == 3.0
        assert lookup.counters["misses"] == 0.0
        assert not buf.named("engine.run_batch")  # all cached, no sim
