"""Block dispatch in the runner: blocking changes wall-clock, nothing else.

Covers the runner-level contracts of the replication-batched engine:
``replicate``/``sweep_grid`` results are bit-identical to per-seed
``run_broadcast`` runs of the same children whatever blocks they form,
pooled dispatch equals serial dispatch, telemetry stays neutral on the
batched path, traced runs keep their blocks and still report one event
stream per replication, and progress accounting stays in run units.
"""

from __future__ import annotations

import functools
import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import SchedulerError
from repro.network.deployment import DiskDeployment
from repro.obs import capture, capture_spans
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast
from repro.sim.runner import (
    DEFAULT_BLOCK_SIZE,
    assign_blocks,
    point_tasks,
    replicate,
    sweep_grid,
)
from repro.utils.rng import as_seed_sequence

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


def per_seed_runs(policy, cfg, seed, replications):
    """The reference: each spawned child run alone, a block of one."""
    return [
        run_broadcast(policy, cfg, child)
        for child in as_seed_sequence(seed).spawn(replications)
    ]


class TestReplicateBlockSizes:
    @pytest.mark.parametrize("replications", [1, 2, 3, 100])
    def test_blocking_never_changes_results(self, cfg, replications):
        """A point runs in blocks of up to DEFAULT_BLOCK_SIZE (100
        replications: 32 + 32 + 32 + 4); every run equals its seed run
        alone."""
        policy = ProbabilisticRelay(0.5)
        batched = replicate(policy, cfg, replications, seed=9)
        assert_runs_identical(per_seed_runs(policy, cfg, 9, replications), batched)


class TestSweepGridBlocks:
    def test_sweep_identical_to_runs_alone(self, cfg):
        a = sweep_grid(cfg, [15.0], [0.4, 0.8], replications=3, seed=5)
        points = as_seed_sequence(5).spawn(2)
        for point_root, p in zip(points, [0.4, 0.8], strict=True):
            alone = per_seed_runs(ProbabilisticRelay(p), cfg, point_root, 3)
            assert_runs_identical(alone, a[(15.0, p)])

    def test_reuse_deployments_identical_to_runs_alone(self, cfg):
        a = sweep_grid(
            cfg, [15.0], [0.4, 0.8], replications=3, seed=5, reuse_deployments=True
        )
        (rho_root,) = as_seed_sequence(5).spawn(1)
        cells = []
        for cell in rho_root.spawn(3):
            dep_seed, run_seed = cell.spawn(2)
            deployment = DiskDeployment.sample(
                rho=cfg.rho,
                n_rings=cfg.n_rings,
                radius=cfg.radius,
                rng=np.random.default_rng(dep_seed),
                population=cfg.population,
            )
            cells.append((run_seed, deployment))
        for p in [0.4, 0.8]:
            alone = [
                run_broadcast(ProbabilisticRelay(p), cfg, run_seed, deployment=dep)
                for run_seed, dep in cells
            ]
            assert_runs_identical(alone, a[(15.0, p)])


class _ExitOnceInWorker(ProbabilisticRelay):
    """Kills the first pool worker that runs it (a stand-in for an OOM
    kill); in the parent, and once the marker file exists, it is
    :class:`ProbabilisticRelay` (same repr, so the same store keys)."""

    def __init__(self, p, *, marker, home):
        super().__init__(p)
        self.marker = str(marker)
        self.home = home

    def schedule(self, new_nodes, first_senders, rng, ctx):
        if os.getpid() != self.home:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return super().schedule(new_nodes, first_senders, rng, ctx)


class TestPooledDispatch:
    """Two workers fork a pool once a task list has 4 or more blocks:
    2 rho x 2 p x 3 replications make 4 blocks of 3."""

    def test_pooled_sweep_equals_serial(self, cfg):
        serial = sweep_grid(cfg, [15.0, 20.0], [0.4, 0.8], 3, SEED, workers=1)
        pooled = sweep_grid(cfg, [15.0, 20.0], [0.4, 0.8], 3, SEED, workers=2)
        assert serial.keys() == pooled.keys()
        for point in serial:
            assert_runs_identical(serial[point], pooled[point])

    def test_pooled_sweep_through_store_equals_serial(self, cfg, tmp_path):
        serial = sweep_grid(cfg, [15.0, 20.0], [0.4, 0.8], 3, SEED, workers=1)
        with capture_spans() as buf:
            pooled = sweep_grid(
                cfg, [15.0, 20.0], [0.4, 0.8], 3, SEED, workers=2, store=tmp_path / "s"
            )
        assert sum(s.counters["misses"] for s in buf.named("store.lookup")) == 12
        for point in serial:
            assert_runs_identical(serial[point], pooled[point])

    def test_killed_worker_costs_a_retry(self, cfg, tmp_path):
        """A worker that dies breaks the pool; the tasks it took down run
        again in the next round, in a fresh pool, and the sweep equals
        an in-process one."""
        rhos, ps = [15.0, 20.0], [0.2, 0.4, 0.6, 0.9]
        serial = sweep_grid(cfg, rhos, ps, 2, SEED, workers=1)
        factory = functools.partial(
            _ExitOnceInWorker, marker=tmp_path / "died", home=os.getpid()
        )
        with capture_spans() as buf:
            pooled = sweep_grid(
                cfg, rhos, ps, 2, SEED, workers=2, policy_factory=factory,
                store=tmp_path / "s",
            )
        assert (tmp_path / "died").exists()
        rounds = buf.named("store.execute")
        assert [r.counters["attempt"] for r in rounds] == [0, 1]
        assert rounds[0].counters["failures"] > 0
        assert rounds[1].counters["failures"] == 0
        assert len(list((tmp_path / "s" / "objects").rglob("*.json"))) == 16
        assert multiprocessing.active_children() == []
        assert serial.keys() == pooled.keys()
        for point in serial:
            assert_runs_identical(serial[point], pooled[point])

    def test_storeless_failure_is_a_scheduler_error(self, cfg):
        class Exploding(ProbabilisticRelay):
            def schedule(self, new_nodes, first_senders, rng, ctx):
                raise ValueError("policy exploded")

        with pytest.raises(SchedulerError, match=r"at indices \[0, 1\]") as err:
            replicate(Exploding(0.5), cfg, 2, seed=9, retries=1)
        assert [(i, key) for i, key, _ in err.value.failures] == [(0, None), (1, None)]
        assert err.value.attempts == 2
        assert isinstance(err.value.__cause__, ValueError)
        assert str(err.value.__cause__) == "policy exploded"
        assert "resume=True" not in str(err.value)  # nothing was persisted


class TestTelemetryNeutrality:
    def test_metrics_on_off_bit_identical(self, cfg):
        """Span capture, which collects the run counters, must not
        perturb the batched path (same RNG consumption, same results)."""
        plain = replicate(ProbabilisticRelay(0.6), cfg, 4, seed=SEED)
        with capture_spans() as buf:
            collected = replicate(ProbabilisticRelay(0.6), cfg, 4, seed=SEED)
        assert_runs_identical(plain, collected)
        (loop,) = buf.named("engine.slot_loop")
        assert loop.counters["collisions"] == sum(r.collisions for r in collected)

    def test_traced_blocks_match_blocks_of_one(self, cfg):
        """A traced block of three emits the three runs' event streams
        one after another, exactly as three traced runs alone do, and
        the results stay bit-identical to the untraced block."""
        policy = ProbabilisticRelay(0.6)
        batched = replicate(policy, cfg, 3, seed=SEED)
        with capture() as buf:
            traced = replicate(policy, cfg, 3, seed=SEED)
        with capture() as single:
            per_seed_runs(policy, cfg, SEED, 3)
        assert len(buf) > 0, "a traced block should have emitted events"
        assert buf.events == single.events
        assert_runs_identical(batched, traced)


class TestBlockMachinery:
    def test_assign_blocks_respects_groups_and_size(self, cfg):
        # Two points of three replications, then one of 33: blocks never
        # span a point and never exceed DEFAULT_BLOCK_SIZE.
        tasks = (
            point_tasks(ProbabilisticRelay(0.3), cfg, 1, 3)
            + point_tasks(ProbabilisticRelay(0.6), cfg, 2, 3)
            + point_tasks(ProbabilisticRelay(0.9), cfg, 3, DEFAULT_BLOCK_SIZE + 1)
        )
        blocks = assign_blocks(tasks)
        assert blocks == [0, 0, 0, 1, 1, 1, *[2] * DEFAULT_BLOCK_SIZE, 3]

    def test_assign_blocks_single_group(self, cfg):
        blocks = assign_blocks(point_tasks(ProbabilisticRelay(0.5), cfg, 9, 5))
        assert blocks == [blocks[0]] * 5

    def test_des_tasks_are_blocks_of_one(self, cfg):
        tasks = point_tasks(ProbabilisticRelay(0.5), cfg, 9, 3, engine="des")
        assert assign_blocks(tasks) == [0, 1, 2]


class TestProgressRunUnits:
    def test_progress_smoke_on_batched_replicate(self, cfg, capsys):
        # 33 replications run as two blocks (32 + 1); lines count runs.
        replicate(ProbabilisticRelay(0.5), cfg, 33, seed=9, progress=True)
        err = capsys.readouterr().err
        assert "33/33 runs" in err
