"""Run counters on spans: what the engine, runner and store count.

Every count a layer reports rides on its span as a counter, so a
region's counters are :func:`~repro.obs.spans.capture_spans` plus a sum
over ``buf.named(name)``.
"""

from __future__ import annotations

from repro.obs.spans import capture_spans
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.engine import run_broadcast


def total(buf, name: str, counter: str) -> float:
    """Sum of one counter over every span of one name."""
    return sum(s.counters.get(counter, 0.0) for s in buf.named(name))


def seconds(buf, name: str) -> float:
    return sum(s.dur for s in buf.named(name))


class TestInstrumentation:
    def test_engine_reports_run_metrics(self, small_sim_config):
        with capture_spans() as buf:
            result = run_broadcast(ProbabilisticRelay(0.6), small_sim_config, 3)
        assert total(buf, "engine.run_batch", "reps") == 1
        assert total(buf, "engine.slot_loop", "slots") == len(
            result.new_informed_by_slot
        )
        assert total(buf, "engine.slot_loop", "collisions") == result.collisions
        (run,) = buf.named("engine.run_batch")
        (loop,) = buf.named("engine.slot_loop")
        # The slot loop, which times every channel resolution, nests
        # inside the block's run span.
        assert loop.parent_id == run.span_id
        assert 0.0 <= loop.dur <= run.dur

    def test_runner_block_timer(self, small_sim_config):
        """The default dispatch batches replications: one block span,
        run counting via the engine's ``reps``."""
        from repro.sim.runner import replicate

        with capture_spans() as buf:
            replicate(ProbabilisticRelay(0.5), small_sim_config, 2, 7)
        assert len(buf.named("runner.block")) == 1
        assert total(buf, "runner.block", "reps") == 2
        assert total(buf, "engine.run_batch", "reps") == 2


class TestBlockTimerOverStore:
    """``runner.block`` stays consistent when the store re-forms blocks.

    A store-backed sweep only executes the *missing* tasks, re-grouped
    into fresh replication blocks — the block spans must count those
    re-formed blocks, not the nominal grid shape."""

    SEED = 20050113

    def _grid(self, config, store, **kw):
        from repro.sim.runner import sweep_grid

        return sweep_grid(
            config, [20.0], [0.3, 0.7], 3, self.SEED, store=store, **kw
        )

    def test_cold_sweep_one_block_per_point(self, small_sim_config, tmp_path):
        with capture_spans() as buf:
            self._grid(small_sim_config, tmp_path / "store")
        assert len(buf.named("runner.block")) == 2  # one per (rho, p)
        assert total(buf, "engine.run_batch", "reps") == 6

    def test_partially_warm_store_reforms_blocks(self, small_sim_config, tmp_path):
        from repro.sim.runner import sweep_grid

        store = tmp_path / "store"
        # Warm one grid point only: its 3 tasks become cache hits.
        sweep_grid(small_sim_config, [20.0], [0.3], 3, self.SEED, store=store)
        with capture_spans() as buf:
            self._grid(small_sim_config, store)
        # Only the p=0.7 misses re-form into a block; hits time nothing.
        assert len(buf.named("runner.block")) == 1
        assert total(buf, "engine.run_batch", "reps") == 3
        assert seconds(buf, "runner.block") >= seconds(
            buf, "engine.run_batch"
        )

    def test_fully_warm_store_times_no_blocks(self, small_sim_config, tmp_path):
        store = tmp_path / "store"
        self._grid(small_sim_config, store)
        with capture_spans() as buf:
            self._grid(small_sim_config, store)
        assert not buf.named("runner.block")
        assert not buf.named("engine.run_batch")

    def test_block_totals_nest_run_totals(self, small_sim_config, tmp_path):
        """Every engine run happens inside a block, so the block spans'
        total must dominate the engine spans', with matching counts."""
        with capture_spans() as buf:
            self._grid(small_sim_config, tmp_path / "store")
        blocks = buf.named("runner.block")
        batches = buf.named("engine.run_batch")
        assert len(batches) == len(blocks)
        assert {b.parent_id for b in batches} == {b.span_id for b in blocks}
        assert seconds(buf, "runner.block") >= seconds(
            buf, "engine.run_batch"
        )
