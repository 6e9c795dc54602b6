"""The metrics registry and its hot-path instrumentation points."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collision.slots import SlotCollisionTable
from repro.obs import metrics
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.engine import run_broadcast


@pytest.fixture(autouse=True)
def _clean_registry():
    reg = metrics.registry()
    assert not reg.enabled
    yield
    reg.disable()
    reg.reset()


class TestPrimitives:
    def test_counter(self):
        c = metrics.Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = metrics.Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_timer_accumulates(self):
        t = metrics.Timer()
        t.add(0.5)
        t.add(1.5)
        assert t.total == 2.0
        assert t.count == 2
        assert t.mean == 1.0

    def test_timer_context_manager(self):
        t = metrics.Timer()
        with t.time():
            pass
        assert t.count == 1
        assert t.total >= 0.0

    def test_empty_timer_mean_is_zero(self):
        assert metrics.Timer().mean == 0.0


class TestRegistry:
    def test_name_bound_to_kind(self):
        reg = metrics.MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError, match="is a Counter"):
            reg.timer("x")

    def test_same_name_same_object(self):
        reg = metrics.MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_snapshot_shapes(self):
        reg = metrics.MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2.5)
        reg.timer("t").add(0.25)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == 2.5
        assert snap["t"] == {"total_s": 0.25, "count": 1, "mean_s": 0.25}

    def test_reset_drops_values(self):
        reg = metrics.MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {}

    def test_collect_enables_then_restores(self):
        reg = metrics.registry()
        assert not reg.enabled
        with metrics.collect() as inner:
            assert inner is reg
            assert reg.enabled
        assert not reg.enabled

    def test_collect_resets_by_default(self):
        reg = metrics.registry()
        reg.counter("stale").inc()
        with metrics.collect():
            pass
        assert "stale" not in reg.snapshot()

    def test_collect_no_reset_keeps_values(self):
        reg = metrics.registry()
        with metrics.collect():
            reg.counter("kept").inc()
        with metrics.collect(reset=False):
            reg.counter("kept").inc()
        assert reg.snapshot()["kept"] == 2


class TestInstrumentation:
    def test_engine_reports_run_metrics(self, small_sim_config):
        with metrics.collect() as reg:
            result = run_broadcast(ProbabilisticRelay(0.6), small_sim_config, 3)
        snap = reg.snapshot()
        assert snap["engine.runs"] == 1
        assert snap["engine.slots_resolved"] == len(result.new_informed_by_slot)
        assert snap["engine.collisions"] == result.collisions
        assert snap["engine.run_batch"]["count"] == 1
        assert snap["cam.slots"] >= 1
        assert snap["cam.gather"]["total_s"] >= 0.0

    def test_run_result_carries_snapshot(self, small_sim_config):
        with metrics.collect():
            result = run_broadcast(ProbabilisticRelay(0.6), small_sim_config, 3)
        assert result.metrics is not None
        assert result.metrics["engine.runs"] == 1

    def test_disabled_leaves_result_metrics_none(self, small_sim_config):
        result = run_broadcast(ProbabilisticRelay(0.6), small_sim_config, 3)
        assert result.metrics is None

    def test_collision_table_hits_and_rebuilds(self):
        table = SlotCollisionTable(initial_kmax=16)
        with metrics.collect() as reg:
            table.mu(np.arange(10), 3)  # cold: builds the s=3 table
            table.mu(np.arange(10), 3)  # warm: pure lookup
            table.mu(np.arange(10), 3)
        snap = reg.snapshot()
        assert snap["collision.table_rebuilds"] == 1
        assert snap["collision.table_hits"] == 2

    def test_runner_task_timer(self, small_sim_config):
        from repro.sim.runner import replicate

        with metrics.collect() as reg:
            replicate(ProbabilisticRelay(0.5), small_sim_config, 2, 7, block_size=0)
        assert reg.snapshot()["runner.task"]["count"] == 2

    def test_runner_block_timer(self, small_sim_config):
        """The default dispatch batches replications: one block timing,
        run counting via engine.runs."""
        from repro.sim.runner import replicate

        with metrics.collect() as reg:
            replicate(ProbabilisticRelay(0.5), small_sim_config, 2, 7)
        snap = reg.snapshot()
        assert snap["runner.block"]["count"] == 1
        assert snap["engine.runs"] == 2


class TestBlockTimerOverStore:
    """``runner.block`` stays consistent when the store re-forms blocks.

    A store-backed sweep only executes the *missing* tasks, re-grouped
    into fresh replication blocks — the block timer must count those
    re-formed blocks, not the nominal grid shape."""

    SEED = 20050113

    def _grid(self, config, store, **kw):
        from repro.sim.runner import sweep_grid

        return sweep_grid(
            config, [20.0], [0.3, 0.7], 3, self.SEED, store=store, **kw
        )

    def test_cold_sweep_one_block_per_point(self, small_sim_config, tmp_path):
        with metrics.collect() as reg:
            self._grid(small_sim_config, tmp_path / "store")
        snap = reg.snapshot()
        assert snap["runner.block"]["count"] == 2  # one per (rho, p)
        assert snap["engine.runs"] == 6

    def test_partially_warm_store_reforms_blocks(self, small_sim_config, tmp_path):
        from repro.sim.runner import sweep_grid

        store = tmp_path / "store"
        # Warm one grid point only: its 3 tasks become cache hits.
        sweep_grid(small_sim_config, [20.0], [0.3], 3, self.SEED, store=store)
        with metrics.collect() as reg:
            self._grid(small_sim_config, store)
        snap = reg.snapshot()
        # Only the p=0.7 misses re-form into a block; hits time nothing.
        assert snap["runner.block"]["count"] == 1
        assert snap["engine.runs"] == 3
        assert snap["runner.block"]["total_s"] >= snap["engine.run_batch"]["total_s"]

    def test_fully_warm_store_times_no_blocks(self, small_sim_config, tmp_path):
        store = tmp_path / "store"
        self._grid(small_sim_config, store)
        with metrics.collect() as reg:
            self._grid(small_sim_config, store)
        snap = reg.snapshot()
        assert "runner.block" not in snap
        assert "engine.runs" not in snap

    def test_block_totals_nest_run_totals(self, small_sim_config, tmp_path):
        """Every engine run happens inside a block, so the block timer's
        total must dominate the engine timer's, with matching counts."""
        with metrics.collect() as reg:
            self._grid(small_sim_config, tmp_path / "store")
        snap = reg.snapshot()
        assert snap["engine.batches"] == snap["runner.block"]["count"]
        assert snap["engine.run_batch"]["count"] == snap["engine.batches"]
        assert snap["runner.block"]["total_s"] >= snap["engine.run_batch"]["total_s"]
