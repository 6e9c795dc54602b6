"""End-to-end: replicate/sweep_grid through the store.

The acceptance bar for the store: results are bit-identical with the
store off, cold, warm, or resumed after a mid-sweep crash — for both
engines.
"""

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import SchedulerError
from repro.obs import capture_spans
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate, simulate_pb, sweep_grid
from repro.store import DiskStore


@pytest.fixture
def cfg():
    return SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))


class _FailingRelay(ProbabilisticRelay):
    """Fails mid-sweep; inherits the literal repr, hence the same store
    keys as the policy it impersonates — the "crashed code, fixed,
    re-run" scenario."""

    def schedule(self, new_nodes, first_senders, rng, ctx):
        raise RuntimeError("simulated crash")


def assert_runs_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x.new_informed_by_slot, y.new_informed_by_slot)
        np.testing.assert_array_equal(x.broadcasts_by_slot, y.broadcasts_by_slot)
        assert x.new_informed_by_slot.dtype == y.new_informed_by_slot.dtype
        assert (x.n_field_nodes, x.collisions, x.total_tx, x.total_rx) == (
            y.n_field_nodes,
            y.collisions,
            y.total_tx,
            y.total_rx,
        )
        assert x.seed_entropy == y.seed_entropy
        np.testing.assert_array_equal(
            x.trace.new_by_phase_ring, y.trace.new_by_phase_ring
        )
        assert x.trace.config == y.trace.config
        if x.informed_mask is not None:
            np.testing.assert_array_equal(x.informed_mask, y.informed_mask)


def lookups(buf) -> dict[str, float]:
    """The store's hit/miss/corrupt counts summed over a span capture."""
    return {
        key: sum(s.counters[key] for s in buf.named("store.lookup"))
        for key in ("hits", "misses", "corrupt")
    }


@pytest.mark.parametrize("engine", ["vector", "des"])
class TestReplicateThroughStore:
    def test_off_cold_warm_identical(self, cfg, tmp_path, engine):
        policy = ProbabilisticRelay(0.5)
        off = replicate(policy, cfg, 3, seed=9, engine=engine)
        cold = replicate(
            policy, cfg, 3, seed=9, engine=engine, store=tmp_path / "s"
        )
        with capture_spans() as buf:
            warm = replicate(
                policy, cfg, 3, seed=9, engine=engine, store=tmp_path / "s"
            )
        assert_runs_identical(off, cold)
        assert_runs_identical(off, warm)
        assert lookups(buf)["hits"] == 3
        assert not buf.named("store.execute")

    def test_store_accepts_path_or_instance(self, cfg, tmp_path, engine):
        store = DiskStore(tmp_path / "s")
        a = replicate(ProbabilisticRelay(0.5), cfg, 2, seed=1, engine=engine, store=store)
        b = replicate(
            ProbabilisticRelay(0.5), cfg, 2, seed=1, engine=engine,
            store=str(tmp_path / "s"),
        )
        assert_runs_identical(a, b)

    def test_read_through_store_is_a_backend(self, cfg, tmp_path, engine):
        """A read-through store passes through like any other backend:
        runs through it equal a storeless run, and the warm run is
        served from its memory tier."""
        from repro.serve import ReadThroughStore

        policy = ProbabilisticRelay(0.5)
        off = replicate(policy, cfg, 3, seed=9, engine=engine)
        store = ReadThroughStore(DiskStore(tmp_path / "s"))
        cold = replicate(policy, cfg, 3, seed=9, engine=engine, store=store)
        warm = replicate(policy, cfg, 3, seed=9, engine=engine, store=store)
        assert_runs_identical(off, cold)
        assert_runs_identical(off, warm)
        assert store.memory.hits == 3


@pytest.mark.parametrize("engine", ["vector", "des"])
class TestSweepGridThroughStore:
    RHOS = (12, 18)
    PS = (0.3, 0.8)

    def test_off_cold_warm_identical(self, cfg, tmp_path, engine):
        off = sweep_grid(cfg, self.RHOS, self.PS, 2, seed=7, engine=engine)
        cold = sweep_grid(
            cfg, self.RHOS, self.PS, 2, seed=7, engine=engine,
            store=tmp_path / "s",
        )
        with capture_spans() as buf:
            warm = sweep_grid(
                cfg, self.RHOS, self.PS, 2, seed=7, engine=engine,
                store=tmp_path / "s",
            )
        n_tasks = len(self.RHOS) * len(self.PS) * 2
        assert lookups(buf)["hits"] == n_tasks
        assert lookups(buf)["misses"] == 0
        for key in off:
            assert_runs_identical(off[key], cold[key])
            assert_runs_identical(off[key], warm[key])

    def test_kill_and_resume_bit_identical(self, cfg, tmp_path, engine):
        """A sweep that crashes partway resumes without recomputing the
        completed tasks, and the final grid matches a clean run."""
        clean = sweep_grid(cfg, self.RHOS, self.PS, 2, seed=7, engine=engine)

        def crashing_factory(p):
            # p = 0.8 tasks die; p = 0.3 tasks complete and persist.
            return _FailingRelay(p) if p > 0.5 else ProbabilisticRelay(p)

        with pytest.raises(SchedulerError):
            sweep_grid(
                cfg, self.RHOS, self.PS, 2, seed=7, engine=engine,
                policy_factory=crashing_factory,
                store=tmp_path / "s", retries=0,
            )
        with capture_spans() as buf:
            resumed = sweep_grid(
                cfg, self.RHOS, self.PS, 2, seed=7, engine=engine,
                store=tmp_path / "s", resume=True,
            )
        # The surviving half was served from the store, not recomputed.
        n_tasks = len(self.RHOS) * len(self.PS) * 2
        assert lookups(buf)["hits"] == n_tasks // 2
        assert lookups(buf)["misses"] == n_tasks // 2
        for key in clean:
            assert_runs_identical(clean[key], resumed[key])

    def test_corrupted_entry_recomputed(self, cfg, tmp_path, engine):
        clean = sweep_grid(
            cfg, self.RHOS, self.PS, 2, seed=7, engine=engine,
            store=tmp_path / "s",
        )
        store = DiskStore(tmp_path / "s")
        victim = next(iter(store.keys()))
        store.path_for(victim).write_text("bit rot")
        with capture_spans() as buf:
            healed = sweep_grid(
                cfg, self.RHOS, self.PS, 2, seed=7, engine=engine, store=store
            )
        assert lookups(buf)["corrupt"] == 1
        assert lookups(buf)["misses"] == 1
        for key in clean:
            assert_runs_identical(clean[key], healed[key])
        assert store.verify() == []


class TestSimulatePbParity:
    def test_forwards_alignment_progress_manifest(self, cfg, tmp_path, capsys):
        """simulate_pb forwards every keyword to replicate (it used to
        silently drop alignment, progress, and manifest_dir)."""
        manifest_dir = tmp_path / "prov"
        via_pb = simulate_pb(
            cfg, 0.4, replications=2, seed=3,
            engine="des", alignment="jitter", manifest_dir=manifest_dir,
        )
        direct = replicate(
            ProbabilisticRelay(0.4), cfg, 2, seed=3,
            engine="des", alignment="jitter",
        )
        assert_runs_identical(direct, via_pb)
        assert (manifest_dir / "manifest.json").exists()

    def test_forwards_store(self, cfg, tmp_path):
        a = simulate_pb(cfg, 0.4, replications=2, seed=3, store=tmp_path / "s")
        with capture_spans() as buf:
            b = simulate_pb(cfg, 0.4, replications=2, seed=3, store=tmp_path / "s")
        assert_runs_identical(a, b)
        assert lookups(buf)["hits"] == 2

    def test_alignment_changes_des_results(self, cfg):
        phase = simulate_pb(cfg, 0.4, replications=2, seed=3, engine="des")
        jitter = simulate_pb(
            cfg, 0.4, replications=2, seed=3, engine="des", alignment="jitter"
        )
        assert any(
            x.new_informed_by_slot.shape != y.new_informed_by_slot.shape
            or (x.new_informed_by_slot != y.new_informed_by_slot).any()
            for x, y in zip(phase, jitter, strict=True)
        )
