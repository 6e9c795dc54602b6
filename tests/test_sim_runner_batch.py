"""Block dispatch in the runner: batching changes wall-clock, nothing else.

Covers the runner-level contracts of the replication-batched engine:
``replicate``/``sweep_grid`` results are bit-identical across block
sizes, telemetry stays neutral on the batched path, traced runs keep
their blocks and still report one event stream per replication, and
progress accounting stays in run units.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import ConfigurationError
from repro.obs import capture, capture_spans
from repro.obs.progress import SweepProgress
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    DEFAULT_BLOCK_SIZE,
    _block_assignment,
    _resolve_block_size,
    replicate,
    simulate_pb,
    sweep_grid,
)

SEED = 20050113


@pytest.fixture
def cfg():
    return SimulationConfig(
        analysis=AnalysisConfig(n_rings=3, rho=15.0, slots=3), max_phases=40
    )


def assert_identical(a, b) -> None:
    """Field-by-field equality."""
    assert np.array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
    assert np.array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
    assert a.n_field_nodes == b.n_field_nodes
    assert a.collisions == b.collisions
    assert a.total_tx == b.total_tx
    assert a.total_rx == b.total_rx
    assert a.seed_entropy == b.seed_entropy
    assert np.array_equal(a.informed_mask, b.informed_mask)
    assert np.array_equal(a.trace.new_by_phase_ring, b.trace.new_by_phase_ring)


def assert_runs_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b, strict=True):
        assert_identical(x, y)


class TestReplicateBlockSizes:
    @pytest.mark.parametrize("block_size", [None, 1, 2, 3, 100])
    def test_block_size_never_changes_results(self, cfg, block_size):
        baseline = replicate(ProbabilisticRelay(0.5), cfg, 5, seed=9, block_size=0)
        batched = replicate(
            ProbabilisticRelay(0.5), cfg, 5, seed=9, block_size=block_size
        )
        assert_runs_identical(baseline, batched)

    def test_negative_block_size_rejected(self, cfg):
        with pytest.raises(ConfigurationError):
            replicate(ProbabilisticRelay(0.5), cfg, 2, seed=9, block_size=-1)

    def test_des_engine_ignores_block_size(self, cfg):
        a = replicate(ProbabilisticRelay(0.5), cfg, 2, seed=9, engine="des")
        b = replicate(
            ProbabilisticRelay(0.5), cfg, 2, seed=9, engine="des", block_size=2
        )
        assert_runs_identical(a, b)

    def test_simulate_pb_forwards_block_size(self, cfg):
        a = simulate_pb(cfg, 0.5, 4, seed=9, block_size=0)
        b = simulate_pb(cfg, 0.5, 4, seed=9, block_size=4)
        assert_runs_identical(a, b)


class TestSweepGridBlocks:
    def test_sweep_identical_across_block_sizes(self, cfg):
        kw = dict(replications=3, seed=5)
        a = sweep_grid(cfg, [15.0], [0.4, 0.8], block_size=0, **kw)
        b = sweep_grid(cfg, [15.0], [0.4, 0.8], block_size=2, **kw)
        assert a.keys() == b.keys()
        for point in a:
            assert_runs_identical(a[point], b[point])

    def test_reuse_deployments_identical_across_block_sizes(self, cfg):
        kw = dict(replications=3, seed=5, reuse_deployments=True)
        a = sweep_grid(cfg, [15.0], [0.4, 0.8], block_size=0, **kw)
        b = sweep_grid(cfg, [15.0], [0.4, 0.8], block_size=3, **kw)
        assert a.keys() == b.keys()
        for point in a:
            assert_runs_identical(a[point], b[point])


class TestTelemetryNeutrality:
    def test_metrics_on_off_bit_identical(self, cfg):
        """Span capture, which collects the run counters, must not
        perturb the batched path (same RNG consumption, same results)."""
        plain = replicate(ProbabilisticRelay(0.6), cfg, 4, seed=SEED, block_size=4)
        with capture_spans() as buf:
            collected = replicate(
                ProbabilisticRelay(0.6), cfg, 4, seed=SEED, block_size=4
            )
        assert_runs_identical(plain, collected)
        (loop,) = buf.named("engine.slot_loop")
        assert loop.counters["collisions"] == sum(r.collisions for r in collected)

    def test_traced_blocks_match_blocks_of_one(self, cfg):
        """A traced block of three emits the three runs' event streams
        one after another, exactly as three traced blocks of one do, and
        the results stay bit-identical to the untraced block."""
        batched = replicate(ProbabilisticRelay(0.6), cfg, 3, seed=SEED, block_size=3)
        with capture() as buf:
            traced = replicate(
                ProbabilisticRelay(0.6), cfg, 3, seed=SEED, block_size=3
            )
        with capture() as single:
            replicate(ProbabilisticRelay(0.6), cfg, 3, seed=SEED, block_size=1)
        assert len(buf) > 0, "a traced block should have emitted events"
        assert buf.events == single.events
        assert_runs_identical(batched, traced)

    def test_tracer_keeps_block_size(self):
        with capture():
            assert _resolve_block_size(8, "vector") == 8
        assert _resolve_block_size(8, "vector") == 8


class TestBlockMachinery:
    def test_resolve_block_size(self):
        assert _resolve_block_size(None, "vector") == DEFAULT_BLOCK_SIZE
        assert _resolve_block_size(None, "des") == 0
        assert _resolve_block_size(0, "vector") == 0
        assert _resolve_block_size(1, "vector") == 0
        assert _resolve_block_size(5, "vector") == 5
        with pytest.raises(ConfigurationError):
            _resolve_block_size(-2, "vector")

    def test_block_assignment_respects_groups_and_size(self):
        # Two grid points of three replications, block_size=2: blocks
        # never span a group boundary and never exceed the size.
        groups = [0, 0, 0, 1, 1, 1]
        blocks = _block_assignment(groups, 2)
        assert len(blocks) == 6
        by_block: dict[int, list[int]] = {}
        for i, b in enumerate(blocks):
            by_block.setdefault(b, []).append(i)
        for members in by_block.values():
            assert len(members) <= 2
            assert len({groups[i] for i in members}) == 1
            assert members == list(range(members[0], members[0] + len(members)))

    def test_block_assignment_single_group(self):
        blocks = _block_assignment([0] * 5, 32)
        assert blocks == [blocks[0]] * 5


class TestProgressRunUnits:
    def test_update_blocks_counts_runs(self):
        """Satellite: ETA math sees runs, not blocks — a 2-block update
        covering 7 runs advances the counter by 7."""

        class _Run:
            collisions = 3
            reachability = 0.5

        out = io.StringIO()
        prog = SweepProgress(10, "t", min_interval=0.0, stream=out)
        prog.update_blocks(1, 3, [[_Run(), _Run(), _Run(), _Run()]])
        prog.update_blocks(2, 3, [[_Run(), _Run(), _Run()]])
        lines = out.getvalue().strip().splitlines()
        assert "4/10 runs" in lines[0]
        assert "7/10 runs" in lines[1]
        # Per-run statistics aggregate across all block members.
        assert "collisions/run 3.0" in lines[1]

    def test_progress_smoke_on_batched_replicate(self, cfg, capsys):
        replicate(
            ProbabilisticRelay(0.5), cfg, 4, seed=9, block_size=2, progress=True
        )
        err = capsys.readouterr().err
        assert "4/4 runs" in err
