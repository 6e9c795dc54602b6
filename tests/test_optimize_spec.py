"""Query model: bounds/objectives validation and metric evaluation parity.

The load-bearing claims pinned here:

* :func:`evaluate_trace`, and :func:`sweep_metric` through it, reproduce
  the :class:`BroadcastTrace` metric methods bit-for-bit for every
  :data:`repro.analysis.optimizer.METRICS` entry (the four corners of
  the paper's Figs. 4-7);
* :func:`evaluate_run` matches the :class:`RunResult` metric methods exactly;
* :func:`evaluate_runs` aggregates with the figures' mean-over-feasible
  convention.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.metrics import QUIESCENCE_PHASES
from repro.analysis.optimizer import (
    METRICS,
    default_probability_grid,
    paper_query,
    sweep_metric,
)
from repro.analysis.ring_model import RingModel
from repro.analysis.trace import BroadcastTrace
from repro.errors import ConfigurationError, InfeasibleConstraintError
from repro.optimize import (
    Evaluation,
    OptimizeQuery,
    better,
    evaluate_run,
    evaluate_runs,
    evaluate_trace,
)
from repro.optimize.spec import best_evaluation
from repro.sim.config import SimulationConfig
from repro.sim.runner import sweep_grid

GRID = default_probability_grid(0.05)

#: The paper's analysis constraint per bound (Figs. 4-7).
CONSTRAINTS = {"latency": 5.0, "reachability": 0.72, "energy": 35.0}

#: METRICS key -> (query, Evaluation attribute, constraint value).
PARITY_CASES = {
    metric: (paper_query(metric, CONSTRAINTS[bound]), objective, CONSTRAINTS[bound])
    for metric, (bound, objective) in METRICS.items()
}


def _trace_method_values(
    model: RingModel, metric: str, constraint: float, grid: np.ndarray
) -> list[float]:
    """One paper metric read straight off the trace methods (NaN if infeasible).

    The latency metric reads a trace cut at the budget; the others a
    quiescent one.
    """
    if metric == "reachability_at_latency":
        traces = model.run_batch(grid, max_phases=math.ceil(constraint))
        return [trace.reachability_after(constraint) for trace in traces]
    read = {
        "latency_at_reachability": BroadcastTrace.latency_to,
        "energy_at_reachability": BroadcastTrace.broadcasts_to,
        "reachability_at_energy": BroadcastTrace.reachability_within_energy,
    }[metric]
    values = []
    for trace in model.run_batch(grid, max_phases=QUIESCENCE_PHASES):
        try:
            values.append(read(trace, constraint))
        except InfeasibleConstraintError:
            values.append(math.nan)
    return values


class TestQueryValidation:
    def test_unknown_bound(self):
        with pytest.raises(ConfigurationError, match="unknown bound"):
            OptimizeQuery(bounds={"throughput": 1.0}, objectives=("latency",))

    def test_unknown_objective(self):
        with pytest.raises(ConfigurationError, match="unknown objective"):
            OptimizeQuery(objectives=("throughput",))

    def test_non_positive_bound(self):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            OptimizeQuery(bounds={"latency": 0.0}, objectives=("reachability",))
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            OptimizeQuery(
                bounds={"energy": float("inf")}, objectives=("reachability",)
            )

    def test_reachability_bound_above_one(self):
        with pytest.raises(ConfigurationError, match="<= 1"):
            OptimizeQuery(bounds={"reachability": 1.5}, objectives=("latency",))

    def test_empty_objectives(self):
        with pytest.raises(ConfigurationError, match="at least one objective"):
            OptimizeQuery(bounds={"latency": 5.0})

    def test_bound_and_objective_overlap(self):
        with pytest.raises(ConfigurationError, match="both a bound"):
            OptimizeQuery(bounds={"latency": 5.0}, objectives=("latency",))

    def test_duplicate_objective(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            OptimizeQuery(objectives=("latency", "latency"))

    def test_min_feasible_range(self):
        with pytest.raises(ConfigurationError, match="min_feasible"):
            OptimizeQuery(objectives=("latency",), min_feasible=0.0)
        with pytest.raises(ConfigurationError, match="min_feasible"):
            OptimizeQuery(objectives=("latency",), min_feasible=1.2)


class TestTraceParity:
    """evaluate_trace and sweep_metric vs the trace methods, bit for bit."""

    @pytest.mark.parametrize("rho", [20.0, 60.0, 140.0])
    @pytest.mark.parametrize("metric", sorted(PARITY_CASES))
    def test_matches_sweep_metric(self, rho, metric):
        config = AnalysisConfig(rho=rho)
        query, attr, constraint = PARITY_CASES[metric]
        model = RingModel(config)
        expected = _trace_method_values(model, metric, constraint, GRID)
        _, swept = sweep_metric(config, metric, constraint, p_grid=GRID)
        traces = model.run_batch(GRID, max_phases=QUIESCENCE_PHASES)
        for p, trace, want, got in zip(GRID, traces, expected, swept, strict=True):
            ev = evaluate_trace(trace, query)
            assert ev.p == float(p)
            if math.isnan(want):
                assert math.isnan(got)
                assert not ev.feasible
                assert ev.violation > 0.0
            else:
                # Exact equality, whatever the recursion horizon: every
                # path reads the same interpolated trace methods.
                assert got == want
                assert ev.feasible
                assert float(getattr(ev, attr)) == want

    def test_all_metrics_read_at_same_stop(self, paper_config):
        """The three metrics of one Evaluation are mutually consistent."""
        trace = RingModel(paper_config).run_batch(
            np.array([0.3]), max_phases=QUIESCENCE_PHASES
        )[0]
        query = OptimizeQuery(
            bounds={"reachability": 0.5}, objectives=("energy",)
        )
        ev = evaluate_trace(trace, query)
        assert ev.feasible
        assert ev.latency == trace.latency_to(0.5)
        assert ev.energy == trace.broadcasts_at(ev.latency)
        assert ev.reachability == trace.reachability_after(ev.latency)

    def test_combined_bounds(self, paper_config):
        """reach >= R and latency <= L: feasible iff the crossing beats L."""
        trace = RingModel(paper_config).run_batch(
            np.array([0.4]), max_phases=QUIESCENCE_PHASES
        )[0]
        crossing = trace.latency_to(0.6)
        loose = OptimizeQuery(
            bounds={"reachability": 0.6, "latency": crossing + 1.0},
            objectives=("energy",),
        )
        ev = evaluate_trace(trace, loose)
        assert ev.feasible and ev.latency == crossing

        tight = OptimizeQuery(
            bounds={"reachability": 0.6, "latency": crossing / 2.0},
            objectives=("energy",),
        )
        ev = evaluate_trace(trace, tight)
        assert not ev.feasible
        # Metrics are read at the latency cap, not at the crossing.
        assert ev.latency == crossing / 2.0
        assert ev.violation == pytest.approx(
            0.6 - trace.reachability_after(crossing / 2.0)
        )


@pytest.fixture(scope="module")
def mc_runs():
    """A few replications at two probabilities of a small scenario."""
    config = SimulationConfig(
        analysis=AnalysisConfig(n_rings=3, rho=20.0, quad_nodes=32)
    )
    grid = sweep_grid(config, [config.rho], [0.3, 0.7], 4, seed=99)
    return {p: grid[(config.rho, p)] for p in (0.3, 0.7)}


class TestRunParity:
    """evaluate_run vs the RunResult metric methods."""

    def test_latency_bound_matches_reachability_after_phases(self, mc_runs):
        query = OptimizeQuery(bounds={"latency": 3.0}, objectives=("reachability",))
        for runs in mc_runs.values():
            for run in runs:
                ev = evaluate_run(run, query)
                assert ev.feasible
                assert ev.reachability == run.reachability_after_phases(3.0)

    def test_reach_bound_matches_latency_and_broadcasts_to(self, mc_runs):
        query = OptimizeQuery(bounds={"reachability": 0.6}, objectives=("latency",))
        for runs in mc_runs.values():
            for run in runs:
                ev = evaluate_run(run, query)
                if ev.feasible:
                    assert ev.latency == run.latency_phases_to(0.6)
                    assert ev.energy == run.broadcasts_to(0.6)
                else:
                    with pytest.raises(InfeasibleConstraintError):
                        run.latency_phases_to(0.6)

    def test_energy_bound_matches_reachability_within_budget(self, mc_runs):
        query = OptimizeQuery(bounds={"energy": 20.0}, objectives=("reachability",))
        for runs in mc_runs.values():
            for run in runs:
                ev = evaluate_run(run, query)
                assert ev.reachability == run.reachability_within_budget(20.0)


class TestRunsAggregation:
    def test_mean_over_feasible_runs(self, mc_runs):
        query = OptimizeQuery(bounds={"reachability": 0.6}, objectives=("latency",))
        runs = mc_runs[0.7]
        agg = evaluate_runs(runs, query, 0.7)
        per_run = [evaluate_run(r, query) for r in runs]
        feas = [e for e in per_run if e.feasible]
        assert agg.p == 0.7
        assert agg.feasible_fraction == len(feas) / len(per_run)
        if feas:
            assert agg.latency == float(np.mean([e.latency for e in feas]))
            assert agg.energy == float(np.mean([e.energy for e in feas]))

    def test_quorum_controls_feasibility(self, mc_runs):
        runs = mc_runs[0.7]
        base = OptimizeQuery(bounds={"reachability": 0.6}, objectives=("latency",))
        frac = evaluate_runs(runs, base, 0.7).feasible_fraction
        if 0.0 < frac < 1.0:
            lenient = OptimizeQuery(
                bounds={"reachability": 0.6},
                objectives=("latency",),
                min_feasible=frac,
            )
            strict = OptimizeQuery(
                bounds={"reachability": 0.6},
                objectives=("latency",),
                min_feasible=min(1.0, frac + 0.01),
            )
            assert evaluate_runs(runs, lenient, 0.7).feasible
            assert not evaluate_runs(runs, strict, 0.7).feasible

    def test_no_feasible_run_yields_nan_objectives(self, mc_runs):
        query = OptimizeQuery(
            bounds={"reachability": 0.999, "latency": 0.001},
            objectives=("energy",),
        )
        agg = evaluate_runs(mc_runs[0.3], query, 0.3)
        assert not agg.feasible
        assert agg.feasible_fraction == 0.0
        assert math.isnan(agg.latency) and math.isnan(agg.energy)
        assert agg.violation > 0.0

    def test_empty_runs_rejected(self):
        query = OptimizeQuery(objectives=("latency",))
        with pytest.raises(ConfigurationError, match="at least one run"):
            evaluate_runs([], query, 0.5)


def _ev(p, *, reach=0.9, lat=3.0, en=20.0, feasible=True, violation=0.0):
    return Evaluation(
        p=p,
        reachability=reach,
        latency=lat,
        energy=en,
        feasible=feasible,
        violation=violation,
    )


class TestBetter:
    QUERY = OptimizeQuery(objectives=("latency", "energy"))

    def test_feasible_beats_infeasible(self):
        a, b = _ev(0.9), _ev(0.1, feasible=False, violation=0.01)
        assert better(a, b, self.QUERY)
        assert not better(b, a, self.QUERY)

    def test_smaller_violation_wins_among_infeasible(self):
        a = _ev(0.5, feasible=False, violation=0.1)
        b = _ev(0.2, feasible=False, violation=0.3)
        assert better(a, b, self.QUERY)

    def test_lexicographic_objectives(self):
        primary = _ev(0.5, lat=2.0, en=50.0)
        secondary = _ev(0.4, lat=3.0, en=1.0)
        assert better(primary, secondary, self.QUERY)
        # Primary tie: the secondary objective decides.
        a, b = _ev(0.5, lat=2.0, en=10.0), _ev(0.4, lat=2.0, en=20.0)
        assert better(a, b, self.QUERY)

    def test_sense_aware(self):
        query = OptimizeQuery(objectives=("reachability",))
        assert better(_ev(0.5, reach=0.9), _ev(0.4, reach=0.8), query)

    def test_ties_break_to_lower_p(self):
        assert better(_ev(0.2), _ev(0.8), self.QUERY)
        assert not better(_ev(0.8), _ev(0.2), self.QUERY)
        lo = _ev(0.1, feasible=False, violation=0.2)
        hi = _ev(0.9, feasible=False, violation=0.2)
        assert better(lo, hi, self.QUERY)

    def test_best_evaluation_skips_infeasible(self):
        evs = [
            _ev(0.1, feasible=False, violation=0.01),
            _ev(0.6, lat=4.0),
            _ev(0.4, lat=2.0),
        ]
        best = best_evaluation(evs, self.QUERY)
        assert best is not None and best.p == 0.4
        assert best_evaluation(evs[:1], self.QUERY) is None
