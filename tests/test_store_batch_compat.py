"""Store compatibility of the replication-batched path.

Batching is an execution strategy, never part of a task's identity:
a replication's store key and persisted payload must be the same
whether it ran inside a :func:`repro.sim.engine.run_broadcast_batch`
block or as a block of one (:func:`repro.sim.engine.run_broadcast`,
or the scheduler without block ids).  Caches warmed by one path must
serve the other verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs.spans import capture_spans
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast, run_broadcast_batch
from repro.sim.runner import point_tasks, replicate, sweep_grid, task_keys
from repro.store import DiskStore, run_tasks
from repro.store.backend import pack_result
from repro.store.keys import task_key
from repro.utils.rng import as_seed_sequence


@pytest.fixture
def cfg():
    return SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))


def assert_runs_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x.new_informed_by_slot, y.new_informed_by_slot)
        np.testing.assert_array_equal(x.broadcasts_by_slot, y.broadcasts_by_slot)
        assert (x.n_field_nodes, x.collisions, x.total_tx, x.total_rx) == (
            y.n_field_nodes,
            y.collisions,
            y.total_tx,
            y.total_rx,
        )
        assert x.seed_entropy == y.seed_entropy
        np.testing.assert_array_equal(x.informed_mask, y.informed_mask)
        np.testing.assert_array_equal(
            x.trace.new_by_phase_ring, y.trace.new_by_phase_ring
        )


def store_hits(buf) -> float:
    return sum(s.counters["hits"] for s in buf.named("store.lookup"))


def run_per_task(tasks, store):
    """Every task a block of one through the scheduler (no block ids)."""
    return run_tasks(tasks, task_keys(tasks), store=DiskStore(store))


class TestKeyIdentity:
    def test_task_key_has_no_batch_component(self, cfg):
        """Each replication's key depends on (policy, config, seed,
        engine, alignment) only — the execution path cannot enter it."""
        policy = ProbabilisticRelay(0.5)
        children = as_seed_sequence(9).spawn(3)
        keys = [task_key(policy, cfg, c, "vector", "phase") for c in children]
        assert len(set(keys)) == 3
        # Recomputing from identical inputs gives identical keys; there
        # is no other input a batched runner could vary.
        again = [task_key(policy, cfg, c, "vector", "phase") for c in children]
        assert keys == again

    def test_batched_and_per_run_store_same_keys(self, cfg, tmp_path):
        policy = ProbabilisticRelay(0.5)
        replicate(policy, cfg, 3, seed=9, store=tmp_path / "a")
        run_per_task(point_tasks(policy, cfg, 9, 3), tmp_path / "b")
        keys_a = sorted(DiskStore(tmp_path / "a").keys())
        keys_b = sorted(DiskStore(tmp_path / "b").keys())
        assert keys_a == keys_b
        assert len(keys_a) == 3


class TestPayloadIdentity:
    def test_packed_payloads_identical(self, cfg):
        """The persisted byte content (sans telemetry, which is never
        stored) is equal for both execution paths."""
        policy = ProbabilisticRelay(0.4)
        seeds = as_seed_sequence(21).spawn(4)
        batched = run_broadcast_batch(policy, cfg, seeds)
        for r, seed in enumerate(seeds):
            single = run_broadcast(policy, cfg, seed)
            assert pack_result(batched[r]) == pack_result(single)


class TestCrossPathCache:
    def test_cold_batched_serves_warm_per_run(self, cfg, tmp_path):
        policy = ProbabilisticRelay(0.5)
        cold = replicate(policy, cfg, 4, seed=9, store=tmp_path / "s")
        with capture_spans() as buf:
            warm = run_per_task(point_tasks(policy, cfg, 9, 4), tmp_path / "s")
        assert_runs_identical(cold, warm)
        # The warm pass was all hits: nothing ran in the engine.
        assert store_hits(buf) == 4
        assert not buf.named("engine.run_batch")

    def test_cold_per_run_serves_warm_batched(self, cfg, tmp_path):
        policy = ProbabilisticRelay(0.5)
        cold = run_per_task(point_tasks(policy, cfg, 9, 4), tmp_path / "s")
        with capture_spans() as buf:
            warm = replicate(policy, cfg, 4, seed=9, store=tmp_path / "s")
        assert_runs_identical(cold, warm)
        assert store_hits(buf) == 4
        assert not buf.named("engine.run_batch")

    def test_partial_warm_blocks_reform_over_misses(self, cfg, tmp_path):
        """Warm a prefix per-run, then run the full set batched: the
        scheduler serves the hits from disk and re-forms blocks over
        the misses, with results identical to each seed run alone."""
        policy = ProbabilisticRelay(0.5)
        run_per_task(point_tasks(policy, cfg, 9, 2), tmp_path / "s")
        with capture_spans() as buf:
            full = replicate(policy, cfg, 6, seed=9, store=tmp_path / "s")
        alone = [run_broadcast(policy, cfg, c) for c in as_seed_sequence(9).spawn(6)]
        assert_runs_identical(full, alone)
        assert store_hits(buf) == 2
        # Block [0..5] keeps only its four misses, which run as one block.
        assert [s.counters["reps"] for s in buf.named("runner.block")] == [4]

    def test_sweep_grid_cross_path(self, cfg, tmp_path):
        """A sweep's points, run per task, serve the batched sweep."""
        points = as_seed_sequence(5).spawn(2)
        point_cfg = cfg.with_rho(15.0)  # the config sweep_grid builds
        tasks = [
            task
            for root, p in zip(points, [0.4, 0.8], strict=True)
            for task in point_tasks(ProbabilisticRelay(p), point_cfg, root, 3)
        ]
        cold = run_per_task(tasks, tmp_path / "s")
        with capture_spans() as buf:
            warm = sweep_grid(cfg, [15.0], [0.4, 0.8], 3, seed=5, store=tmp_path / "s")
        assert_runs_identical(cold, warm[(15.0, 0.4)] + warm[(15.0, 0.8)])
        assert store_hits(buf) == 6
        assert not buf.named("engine.run_batch")
