"""The optimize() pipeline: determinism, warm-store reuse, telemetry.

The acceptance-critical pin lives here: a repeated query against a warm
result store performs **zero** new simulator runs — every Monte-Carlo
task is served from the store (the ``store.lookup`` span counts no
misses, and no ``store.execute`` round runs) and the frontier is
bit-identical.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import ConfigurationError
from repro.obs import trace as obs_trace
from repro.obs.events import SearchStep
from repro.obs.spans import capture_spans
from repro.optimize import optimize
from repro.sim.config import SimulationConfig

CONFIG = SimulationConfig(
    analysis=AnalysisConfig(n_rings=3, rho=20.0, quad_nodes=32)
)
KNOBS = dict(
    objectives=("reachability",),
    bounds={"latency": 5.0},
    seed=424242,
    resolution=0.05,
    restarts=2,
    replications=3,
    max_verify=2,
)


def total(buf, name: str, counter: str) -> float:
    """Sum of one counter over every span of one name."""
    return sum(s.counters.get(counter, 0.0) for s in buf.named(name))


class TestOptimize:
    def test_no_verify_returns_surrogate_frontier(self):
        result = optimize(CONFIG, **{**KNOBS, "verify": False})
        assert result.sim_tasks == 0
        assert result.candidates == ()
        assert result.frontier
        assert all(pt.simulated is None for pt in result.frontier)
        assert result.best is not None
        assert result.best.evaluation.source == "surrogate"

    def test_verified_result(self):
        result = optimize(CONFIG, **KNOBS)
        assert result.candidates
        assert result.sim_tasks == len(result.candidates) * 3
        assert result.best is not None
        assert result.best.evaluation.source == "simulation"
        assert result.best.simulated is not None
        # The best frontier point carries both tiers' views of its rung.
        assert result.best.surrogate.p == result.best.p

    def test_fixed_seed_bit_identical(self):
        a = optimize(CONFIG, **KNOBS)
        b = optimize(CONFIG, **KNOBS)
        assert a.to_dict() == b.to_dict()
        assert a.frontier == b.frontier

    def test_resolution_not_dividing_one(self):
        # The ladder stops at 0.90: the shotgun's top rung is a probability.
        result = optimize(
            CONFIG, **{**KNOBS, "resolution": 0.15, "verify": False}
        )
        assert result.best is not None
        assert 0.0 < result.best.p <= 0.9 + 1e-12

    def test_analysis_config_accepted(self):
        result = optimize(CONFIG.analysis, **{**KNOBS, "verify": False})
        assert result.frontier

    def test_verification_knob_validation(self):
        with pytest.raises(ConfigurationError, match="replications"):
            optimize(CONFIG, **{**KNOBS, "replications": 0})
        with pytest.raises(ConfigurationError, match="max_verify"):
            optimize(CONFIG, **{**KNOBS, "max_verify": 0})

    def test_to_dict_is_json_ready(self):
        result = optimize(CONFIG, **KNOBS)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["best_p"] == result.best.p
        assert payload["candidates"] == list(result.candidates)
        assert payload["sim_tasks"] == result.sim_tasks


class TestWarmStore:
    def test_repeat_query_runs_zero_new_simulations(self, tmp_path):
        store = str(tmp_path / "store")
        cold = optimize(CONFIG, **KNOBS, store=store)

        with capture_spans() as buf:
            warm = optimize(CONFIG, **KNOBS, store=store)

        assert total(buf, "store.lookup", "misses") == 0
        executed = total(buf, "store.execute", "tasks") - total(
            buf, "store.execute", "failures"
        )
        assert executed == 0
        assert total(buf, "store.lookup", "hits") > 0
        # Same answer, bit for bit.
        assert warm.to_dict() == cold.to_dict()

    def test_read_through_store_matches_storeless(self, tmp_path):
        """optimize() reaches the runner's store argument through
        verification, so a read-through store must work there too."""
        from repro.serve import ReadThroughStore

        plain = optimize(CONFIG, **KNOBS)
        store = ReadThroughStore(tmp_path / "store")
        cold = optimize(CONFIG, **KNOBS, store=store)
        warm = optimize(CONFIG, **KNOBS, store=store)
        assert cold.to_dict() == plain.to_dict()
        assert warm.to_dict() == plain.to_dict()
        assert store.memory.hits == warm.sim_tasks

    def test_shared_rungs_reused_across_queries(self, tmp_path):
        """A different query hitting the same rungs reuses their tasks."""
        store = str(tmp_path / "store")
        first = optimize(CONFIG, **KNOBS, store=store)

        other = {**KNOBS, "bounds": {"latency": 4.0}}
        with capture_spans() as buf:
            second = optimize(CONFIG, **other, store=store)

        shared = set(first.candidates) & set(second.candidates)
        if shared:  # seeds are per-(seed, rung): shared rungs must hit
            assert total(buf, "store.lookup", "hits") > 0


class TestTelemetry:
    def test_search_step_events(self):
        with obs_trace.capture() as buf:
            result = optimize(CONFIG, **KNOBS)
        steps = buf.of_type(SearchStep)
        probes = [s for s in steps if s.stage == "probe"]
        verifies = [s for s in steps if s.stage == "verify"]
        assert len(probes) == result.surrogate_probes
        assert len(verifies) == len(result.candidates)
        assert {s.rung for s in verifies} == set(result.candidates)

    def test_counters(self):
        with capture_spans() as buf:
            result = optimize(CONFIG, **KNOBS)
        (search,) = buf.named("optimize.search")
        assert search.counters["restarts"] == 2
        assert search.counters["probes"] == result.surrogate_probes
        assert total(buf, "optimize.query", "sim_tasks") == result.sim_tasks

    def test_manifest(self, tmp_path):
        result = optimize(CONFIG, **KNOBS, manifest_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["kind"] == "optimize"
        assert manifest["params"]["best_p"] == result.best.p
        assert manifest["params"]["sim_tasks"] == result.sim_tasks
        assert manifest["seed"]["entropy"] == 424242


class TestEmptyFrontier:
    def test_impossible_bounds(self):
        impossible = {
            **KNOBS,
            "bounds": {"reachability": 0.999, "latency": 0.1},
            "objectives": ("energy",),
        }
        result = optimize(CONFIG, **impossible)
        assert result.frontier == ()
        assert result.best is None
        assert result.candidates == ()
