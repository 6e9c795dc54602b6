"""Experiment registry, parameters, figure generation and the CLI."""

import numpy as np
import pytest

from repro.analysis.optimizer import best_index
from repro.errors import ConfigurationError
from repro.experiments.figures import (
    FIGURES,
    analysis_sweep,
    clear_caches,
    generate_figure,
    simulation_grid,
)
from repro.experiments.params import ExperimentScale, PaperParams
from repro.experiments.runall import main as runall_main


class TestParams:
    def test_paper_constants(self):
        assert PaperParams.N_RINGS == 5
        assert PaperParams.SLOTS == 3
        assert PaperParams.RHO_GRID == (20, 40, 60, 80, 100, 120, 140)
        assert PaperParams.REPLICATIONS == 30

    def test_full_scale_grids(self):
        scale = ExperimentScale.full()
        assert len(scale.analysis_p_grid) == 100
        assert len(scale.sim_p_grid) == 20
        assert scale.analysis_p_grid[-1] == pytest.approx(1.0)

    def test_quick_scale_cheaper(self):
        q, f = ExperimentScale.quick(), ExperimentScale.full()
        assert len(q.rho_grid) < len(f.rho_grid)
        assert q.replications < f.replications

    def test_configs(self):
        scale = ExperimentScale.quick()
        cfg = scale.analysis_config(80)
        assert cfg.rho == 80 and cfg.n_rings == 5
        sim = scale.simulation_config(80)
        assert sim.analysis.rho == 80

    def test_step_not_dividing_one(self):
        scale = ExperimentScale(
            name="odd-step",
            rho_grid=(20,),
            analysis_p_step=0.15,
            sim_p_step=0.6,
            replications=1,
        )
        assert scale.analysis_p_grid[-1] == pytest.approx(0.9)
        np.testing.assert_array_equal(scale.sim_p_grid, [0.6])
        fig = generate_figure("fig4a", scale)
        assert np.asarray(fig.x_values).max() <= 1.0
        clear_caches()

    def test_zero_step_rejected(self):
        scale = ExperimentScale(
            name="zero-step",
            rho_grid=(20,),
            analysis_p_step=0,
            sim_p_step=0,
            replications=1,
        )
        with pytest.raises(ConfigurationError):
            _ = scale.analysis_p_grid
        with pytest.raises(ConfigurationError):
            _ = scale.sim_p_grid


class TestRegistry:
    def test_all_paper_figures_registered(self):
        expected = (
            {f"fig{n}{panel}" for n in (4, 5, 6, 7) for panel in "ab"}
            | {f"fig{n}{panel}" for n in (8, 9, 10, 11) for panel in "ab"}
            | {"fig12"}
        )
        assert set(FIGURES) == expected

    def test_unknown_figure(self, tiny_scale):
        with pytest.raises(KeyError, match="unknown figure"):
            generate_figure("fig99", tiny_scale)


class TestAnalysisSweepCache:
    def test_cached_identity(self, tiny_scale):
        a = analysis_sweep(tiny_scale, 20)
        b = analysis_sweep(tiny_scale, 20)
        assert a is b

    def test_contains_all_metrics(self, tiny_scale):
        sweep = analysis_sweep(tiny_scale, 20)
        assert set(sweep) == {
            "p",
            "reach_at_latency",
            "latency_at_reach",
            "energy_at_reach",
            "reach_at_energy",
        }

    def test_clear(self, tiny_scale):
        a = analysis_sweep(tiny_scale, 20)
        clear_caches()
        b = analysis_sweep(tiny_scale, 20)
        assert a is not b


class TestAnalysisFigures:
    def test_fig4b_paper_shape(self, tiny_scale):
        res = generate_figure("fig4b", tiny_scale)
        opt = res.series_array("optimal_p")
        assert opt[-1] < opt[0]  # optimal p decreases with density
        reach = res.series_array("reachability")
        assert reach.std() < 0.05  # the plateau

    def test_fig5b_duality_with_fig4b(self, tiny_scale):
        # Same optimal p (paper Sec. 4.2.4) — on the coarse grid exactly.
        a = generate_figure("fig4b", tiny_scale).series_array("optimal_p")
        b = generate_figure("fig5b", tiny_scale).series_array("optimal_p")
        np.testing.assert_allclose(a, b, atol=0.11)

    def test_fig6b_energy_band(self, tiny_scale):
        res = generate_figure("fig6b", tiny_scale)
        opt = res.series_array("optimal_p")
        assert np.nanmax(opt) <= 0.15  # paper: between 0 and 0.1

    def test_fig7b_dual_of_fig6b(self, tiny_scale):
        e = generate_figure("fig6b", tiny_scale).series_array("optimal_p")
        r = generate_figure("fig7b", tiny_scale).series_array("optimal_p")
        assert np.nanmax(np.abs(e - r)) <= 0.11

    def test_fig12_ratio_stable(self, tiny_scale):
        res = generate_figure("fig12", tiny_scale)
        ratio = res.series_array("ratio")
        assert ratio.max() / ratio.min() < 1.6

    def test_panel_a_has_one_series_per_density(self, tiny_scale):
        res = generate_figure("fig4a", tiny_scale)
        assert set(res.series) == {f"rho={r}" for r in tiny_scale.rho_grid}


class TestRemainingAnalysisPanels:
    def test_fig5a_has_gaps_at_small_p(self, tiny_scale):
        res = generate_figure("fig5a", tiny_scale)
        # At the densest tiny-scale point, p=0.1 may or may not be
        # feasible, but values that exist are >= 1 phase.
        vals = np.concatenate([res.series_array(k) for k in res.series])
        finite = vals[np.isfinite(vals)]
        assert finite.size > 0 and finite.min() >= 1.0

    def test_fig6a_energy_increases_with_p(self, tiny_scale):
        res = generate_figure("fig6a", tiny_scale)
        for key in res.series:
            vals = res.series_array(key)
            finite = np.flatnonzero(np.isfinite(vals))
            if len(finite) >= 2:
                assert vals[finite[-1]] > vals[finite[0]]

    def test_fig7a_bounded(self, tiny_scale):
        res = generate_figure("fig7a", tiny_scale)
        for key in res.series:
            vals = res.series_array(key)
            assert np.all((vals >= 0) & (vals <= 1))


class TestRemainingSimulationPanels:
    def test_fig9a_latencies_exceed_one_phase(self, tiny_scale):
        res = generate_figure("fig9a", tiny_scale)
        vals = np.concatenate([res.series_array(k) for k in res.series])
        finite = vals[np.isfinite(vals)]
        assert finite.size > 0 and finite.min() >= 1.0

    def test_fig10a_feasible_points_positive(self, tiny_scale):
        res = generate_figure("fig10a", tiny_scale)
        vals = np.concatenate([res.series_array(k) for k in res.series])
        finite = vals[np.isfinite(vals)]
        assert np.all(finite >= 1.0)

    def test_fig9b_duality_with_fig8b(self, tiny_scale):
        a = generate_figure("fig8b", tiny_scale).series_array("optimal_p")
        b = generate_figure("fig9b", tiny_scale).series_array("optimal_p")
        # Same grid, noisy data: allow a few grid steps.
        assert np.nanmean(np.abs(a - b)) <= 3 * tiny_scale.sim_p_step

    def test_fig11a_bounded(self, tiny_scale):
        res = generate_figure("fig11a", tiny_scale)
        for key in res.series:
            vals = res.series_array(key)
            assert np.all((vals >= 0) & (vals <= 1))


class TestSimulationFigures:
    def test_grid_shared_across_figures(self, tiny_scale):
        grid_before = simulation_grid(tiny_scale, 20)
        generate_figure("fig8b", tiny_scale)
        assert simulation_grid(tiny_scale, 20) is grid_before

    def test_fig8b_shapes(self, tiny_scale):
        res = generate_figure("fig8b", tiny_scale)
        assert len(res.series_array("optimal_p")) == len(tiny_scale.rho_grid)
        reach = res.series_array("reachability")
        assert np.all((reach > 0.3) & (reach < 0.9))

    def test_fig11b_generates(self, tiny_scale):
        res = generate_figure("fig11b", tiny_scale)
        assert "optimal_p" in res.series


class TestFigureResult:
    def test_text_rendering(self, tiny_scale):
        res = generate_figure("fig4b", tiny_scale)
        text = res.to_text()
        assert "fig4b" in text and "optimal_p" in text

    def test_markdown_rendering(self, tiny_scale):
        md = generate_figure("fig4b", tiny_scale).to_markdown()
        assert md.startswith("### fig4b")
        assert "```" in md

    def test_series_array_unknown_key(self, tiny_scale):
        res = generate_figure("fig4b", tiny_scale)
        with pytest.raises(KeyError):
            res.series_array("nope")


class TestCli:
    def test_list(self, capsys):
        assert runall_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "fig12" in out

    def test_unknown_figure_exit_code(self, capsys):
        assert runall_main(["--figures", "fig99"]) == 2

    def test_single_analysis_figure(self, capsys):
        assert runall_main(["--figures", "fig4b", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "optimal_p" in out

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.md"
        code = runall_main(
            ["--figures", "fig4b", "--markdown", "-o", str(target)]
        )
        assert code == 0
        assert "### fig4b" in target.read_text()

    def test_chart_option(self, capsys):
        assert runall_main(["--figures", "fig4b", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "o optimal_p" in out  # legend of the ASCII chart

    def test_save_json_option(self, tmp_path, capsys):
        target = tmp_path / "json"
        code = runall_main(
            ["--figures", "fig4b", "--save-json", str(target)]
        )
        assert code == 0
        from repro.experiments.io import load_figures

        loaded = load_figures(target)
        assert "fig4b" in loaded


class TestOptimum:
    """The first-best-finite-index helper every optimum reads through."""

    def test_max_and_min(self):
        assert best_index(np.array([0.1, 0.9, 0.5]), "max") == 1
        assert best_index(np.array([0.1, 0.9, 0.5]), "min") == 0

    def test_nan_entries_never_win(self):
        assert best_index(np.array([np.nan, 2.0, 1.0]), "min") == 2
        assert best_index(np.array([np.nan, 2.0, 1.0]), "max") == 1

    def test_inf_entries_never_win(self):
        assert best_index(np.array([np.inf, 2.0]), "max") == 1
        assert best_index(np.array([-np.inf, 2.0]), "min") == 1

    def test_ties_resolve_to_lowest_index(self):
        assert best_index(np.array([1.0, 1.0, 1.0]), "min") == 0
        assert best_index(np.array([np.nan, 3.0, 3.0]), "max") == 1

    def test_all_nan_is_none(self):
        assert best_index(np.array([np.nan, np.nan]), "min") is None
        assert best_index(np.array([np.nan, np.nan]), "max") is None


class TestOptimalPointParity:
    """A b-panel is the same alone as after its a-panel.

    Alone, a b-panel computes the dense sweep itself; after its a-panel
    it reads the cached one.  Both must produce bit-identical figures.
    """

    @pytest.mark.parametrize(
        "a_panel,b_panel",
        [("fig4a", "fig4b"), ("fig5a", "fig5b"), ("fig6a", "fig6b"), ("fig7a", "fig7b")],
    )
    def test_panels(self, tiny_scale, a_panel, b_panel):
        clear_caches()
        alone = generate_figure(b_panel, tiny_scale)

        clear_caches()
        generate_figure(a_panel, tiny_scale)  # populates the dense cache
        after = generate_figure(b_panel, tiny_scale)

        assert alone.series.keys() == after.series.keys()
        for name in alone.series:
            np.testing.assert_array_equal(
                np.asarray(alone.series[name], dtype=float),
                np.asarray(after.series[name], dtype=float),
            )
        clear_caches()

    def test_fig12_ratio_parity(self, tiny_scale):
        clear_caches()
        alone = generate_figure("fig12", tiny_scale)

        clear_caches()
        generate_figure("fig6a", tiny_scale)
        after = generate_figure("fig12", tiny_scale)

        for name in alone.series:
            np.testing.assert_array_equal(
                np.asarray(alone.series[name], dtype=float),
                np.asarray(after.series[name], dtype=float),
            )
        clear_caches()
