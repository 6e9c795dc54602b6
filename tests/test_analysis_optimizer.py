"""Optimal-probability search: sweeps, optima, duality, refinement."""

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.optimizer import (
    METRICS,
    default_probability_grid,
    optimal_probability,
    paper_query,
    sweep_metric,
)
from repro.errors import ConfigurationError, InfeasibleConstraintError
from repro.optimize.spec import METRIC_SENSES


@pytest.fixture
def cfg():
    return AnalysisConfig(n_rings=4, rho=40.0, quad_nodes=48)


COARSE = np.arange(0.05, 1.001, 0.05)


class TestGrid:
    def test_default_grid_is_papers(self):
        grid = default_probability_grid()
        assert len(grid) == 100
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(1.0)

    def test_custom_step(self):
        grid = default_probability_grid(0.25)
        np.testing.assert_allclose(grid, [0.25, 0.5, 0.75, 1.0])

    def test_invalid_step(self):
        with pytest.raises(ConfigurationError):
            default_probability_grid(0.0)
        with pytest.raises(ValueError):
            default_probability_grid(2.0)

    @pytest.mark.parametrize(
        "step,top,rungs", [(0.15, 0.9, 6), (0.55, 0.55, 1), (0.6, 0.6, 1)]
    )
    def test_step_not_dividing_one_stops_below_it(self, step, top, rungs):
        grid = default_probability_grid(step)
        assert len(grid) == rungs
        assert grid[-1] == pytest.approx(top)
        assert grid[-1] <= 1.0

    @pytest.mark.parametrize("step", [0.001, 0.003, 0.01, 0.02, 0.05, 0.07, 0.3])
    def test_grids_within_one_unchanged(self, step):
        n = int(round(1.0 / step))
        expected = np.linspace(step, n * step, n)
        assert expected[-1] <= 1.0
        np.testing.assert_array_equal(default_probability_grid(step), expected)

    def test_no_rung_above_one(self):
        for k in range(1, 1001):
            grid = default_probability_grid(k / 1000)
            assert len(grid) >= 1
            assert grid.max() <= 1.0


class TestSweep:
    def test_shapes(self, cfg):
        grid, values = sweep_metric(cfg, "reachability_at_latency", 5, COARSE)
        assert grid.shape == values.shape == COARSE.shape

    def test_infeasible_points_are_nan(self, cfg):
        grid, values = sweep_metric(
            cfg, "latency_at_reachability", 0.72, np.array([0.003, 0.5])
        )
        assert np.isnan(values[0]) and np.isfinite(values[1])

    def test_unknown_metric(self, cfg):
        with pytest.raises(ConfigurationError):
            sweep_metric(cfg, "made_up_metric", 5)

    def test_empty_grid_rejected(self, cfg):
        with pytest.raises(ValueError):
            sweep_metric(cfg, "reachability_at_latency", 5, np.array([]))


class TestOptimum:
    def test_max_metric_optimum_beats_endpoints(self, cfg):
        res = optimal_probability(cfg, "reachability_at_latency", 5, p_grid=COARSE)
        assert res.value >= np.nanmax(res.values) - 1e-12
        assert res.p in COARSE

    def test_min_metric(self, cfg):
        res = optimal_probability(cfg, "energy_at_reachability", 0.6, p_grid=COARSE)
        assert res.value == np.nanmin(res.values)

    def test_all_infeasible_raises(self, cfg):
        with pytest.raises(InfeasibleConstraintError):
            optimal_probability(
                cfg,
                "latency_at_reachability",
                0.72,
                p_grid=np.array([0.001, 0.002]),
            )

    def test_feasible_fraction(self, cfg):
        res = optimal_probability(
            cfg,
            "latency_at_reachability",
            0.72,
            p_grid=np.array([0.003, 0.3, 0.6]),
        )
        assert res.feasible_fraction == pytest.approx(2 / 3)

    def test_result_records_inputs(self, cfg):
        res = optimal_probability(cfg, "reachability_at_latency", 5, p_grid=COARSE)
        assert res.metric == "reachability_at_latency"
        assert res.constraint == 5.0
        assert res.config is cfg


class TestDuality:
    def test_fig4b_equals_fig5b_optimal_p(self, cfg):
        """Paper Sec. 4.2.4: max-reach@latency and min-latency@reach are
        duals, so (on the same grid, with the matched target) the optima
        coincide."""
        r_opt = optimal_probability(cfg, "reachability_at_latency", 5, p_grid=COARSE)
        # Use the achieved optimum as the dual's target.
        target = r_opt.value - 1e-6
        l_opt = optimal_probability(
            cfg, "latency_at_reachability", target, p_grid=COARSE
        )
        assert l_opt.p == pytest.approx(r_opt.p, abs=0.051)
        assert l_opt.value == pytest.approx(5.0, abs=0.2)


class TestRefine:
    def test_refinement_improves_or_matches(self, cfg):
        coarse = optimal_probability(
            cfg, "reachability_at_latency", 5, p_grid=np.arange(0.1, 1.01, 0.1)
        )
        refined = optimal_probability(
            cfg,
            "reachability_at_latency",
            5,
            p_grid=np.arange(0.1, 1.01, 0.1),
            refine=True,
        )
        assert refined.value >= coarse.value - 1e-12

    def test_refined_p_stays_near_grid_optimum(self, cfg):
        refined = optimal_probability(
            cfg,
            "reachability_at_latency",
            5,
            p_grid=np.arange(0.1, 1.01, 0.1),
            refine=True,
        )
        assert abs(refined.p - 0.3) <= 0.2  # within one grid cell of coarse opt


class TestOptimalIntensity:
    def test_density_free_constant(self):
        """p* · rho is invariant across the density family (the scaling
        law of the recursion), up to grid resolution."""
        from repro.analysis.optimizer import optimal_intensity

        grid = np.arange(0.01, 1.001, 0.01)
        intensities = [
            optimal_intensity(
                AnalysisConfig(n_rings=4, rho=rho, quad_nodes=48),
                "reachability_at_latency",
                5,
                p_grid=grid,
                refine=True,
            )
            for rho in (40, 80, 160)
        ]
        assert max(intensities) / min(intensities) < 1.1

    def test_predicts_other_density(self):
        """Tune once, transfer by p = intensity / rho."""
        from repro.analysis.metrics import reachability_at_latency
        from repro.analysis.optimizer import optimal_intensity, optimal_probability

        grid = np.arange(0.01, 1.001, 0.01)
        base = AnalysisConfig(n_rings=4, rho=60, quad_nodes=48)
        intensity = optimal_intensity(
            base, "reachability_at_latency", 5, p_grid=grid
        )
        target = base.with_rho(120)
        transferred = min(1.0, intensity / 120)
        direct = optimal_probability(
            target, "reachability_at_latency", 5, p_grid=grid
        )
        achieved = reachability_at_latency(target, transferred, 5)
        assert achieved >= 0.99 * direct.value


class TestMetricSpecs:
    def test_all_four_metrics_registered(self):
        assert set(METRICS) == {
            "reachability_at_latency",
            "latency_at_reachability",
            "energy_at_reachability",
            "reachability_at_energy",
        }

    def test_sense_direction(self):
        senses = {
            metric: METRIC_SENSES[paper_query(metric, 0.5).objectives[0]]
            for metric in METRICS
        }
        assert senses == {
            "reachability_at_latency": "max",
            "latency_at_reachability": "min",
            "energy_at_reachability": "min",
            "reachability_at_energy": "max",
        }

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("constraint", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_constraint_rejected(self, cfg, metric, constraint):
        with pytest.raises(ConfigurationError):
            sweep_metric(cfg, metric, constraint, COARSE)
        with pytest.raises(ConfigurationError):
            optimal_probability(cfg, metric, constraint, p_grid=COARSE)

    @pytest.mark.parametrize(
        "metric", ["latency_at_reachability", "energy_at_reachability"]
    )
    @pytest.mark.parametrize("target", [1.0, 1.5])
    def test_unattainable_reachability_target_rejected(self, cfg, metric, target):
        with pytest.raises(ConfigurationError):
            sweep_metric(cfg, metric, target, COARSE)
        with pytest.raises(ConfigurationError):
            optimal_probability(cfg, metric, target, p_grid=COARSE)
