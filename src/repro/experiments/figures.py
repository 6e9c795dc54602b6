"""Generators for every evaluation figure (Figs. 4–12).

Analysis figures (4–7, 12) come from the ring model; simulation figures
(8–11) from Monte-Carlo runs of the vectorized engine.  Figures sharing
raw data share it here too: one analytical sweep per density feeds all
of Figs. 4–7, and one simulation grid feeds all of Figs. 8–11 (runs go
to quiescence once and every metric is post-processed from the same
traces), so regenerating the full evaluation costs one sweep + one
grid.

Every analytic value is one of the paper's four metrics read off a
trace as a :func:`~repro.analysis.optimizer.paper_query` (the stopping
rule :mod:`repro.optimize` searches with), and every optimal-``p``
panel (4b–7b, 8b–11b, 12) is the first best finite rung of a dense
sweep (:func:`~repro.analysis.optimizer.best_index`).  A b-panel
generated alone computes its densities' sweeps itself: the batched
recursion costs one array step per phase over all probabilities, so
the whole ladder is cheaper than an adaptive search over it.

Every generator takes an :class:`~repro.experiments.params.ExperimentScale`
and returns a :class:`~repro.experiments.report.FigureResult`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.flooding import flooding_success_rate
from repro.analysis.metrics import QUIESCENCE_PHASES
from repro.analysis.optimizer import METRICS, best_index, paper_query, trace_value
from repro.analysis.ring_model import RingModel
from repro.experiments.params import ExperimentScale, PaperParams
from repro.experiments.report import FigureResult
from repro.optimize.spec import METRIC_SENSES, OptimizeQuery
from repro.sim.results import RunResult, aggregate_metric
from repro.sim.runner import sweep_grid

__all__ = ["FIGURES", "generate_figure", "analysis_sweep", "simulation_grid"]

# ----------------------------------------------------------------------
# shared raw data, cached per (scale, rho)
# ----------------------------------------------------------------------
_ANALYSIS_CACHE: dict[tuple, dict[str, np.ndarray]] = {}
_SIM_CACHE: dict[tuple, dict[float, list[RunResult]]] = {}

#: The analysis constraint of each bound (Sec. 4.2.3).
_ANALYSIS_BOUNDS = {
    "latency": PaperParams.LATENCY_BUDGET_PHASES,
    "reachability": PaperParams.ANALYSIS_REACH_TARGET,
    "energy": PaperParams.ANALYSIS_ENERGY_BUDGET,
}

#: The four metric sweeps of Figs. 4–7, keyed as :func:`analysis_sweep`
#: returns them (``"reach_at_latency"`` is ``reachability_at_latency``).
_METRIC_QUERIES: dict[str, OptimizeQuery] = {
    name.replace("reachability", "reach"): paper_query(name, _ANALYSIS_BOUNDS[bound])
    for name, (bound, _objective) in METRICS.items()
}


def _scale_key(scale: ExperimentScale) -> tuple:
    return (
        scale.name,
        scale.rho_grid,
        scale.analysis_p_step,
        scale.sim_p_step,
        scale.replications,
        scale.seed,
    )


def analysis_sweep(scale: ExperimentScale, rho: float) -> dict[str, np.ndarray]:
    """All four analytic metrics over the probability grid at one density.

    Returns arrays keyed ``"p"``, ``"reach_at_latency"``,
    ``"latency_at_reach"``, ``"energy_at_reach"``, ``"reach_at_energy"``
    (NaN where infeasible).  One quiescent ring-model run per grid point
    supplies every metric.
    """
    key = (_scale_key(scale), float(rho))
    if key in _ANALYSIS_CACHE:
        return _ANALYSIS_CACHE[key]
    grid = scale.analysis_p_grid
    # One batched recursion covers the whole probability grid; each
    # quiescent trace then yields all four metrics.
    traces = RingModel(scale.analysis_config(rho)).run_batch(
        grid, max_phases=QUIESCENCE_PHASES
    )
    out = {"p": grid}
    for mk, query in _METRIC_QUERIES.items():
        out[mk] = np.array([trace_value(trace, query) for trace in traces])
    _ANALYSIS_CACHE[key] = out
    return out


def simulation_grid(scale: ExperimentScale, rho: float) -> dict[float, list[RunResult]]:
    """Replicated quiescent simulations over the probability grid at ``rho``."""
    key = (_scale_key(scale), float(rho))
    if key in _SIM_CACHE:
        return _SIM_CACHE[key]
    # On a miss, sweep every density of the scale through one pooled
    # call: the simulation figures all need the full grid anyway, and
    # sweep_grid keeps a single process pool alive across it.  The
    # per-point seed (scale.seed, int(rho), p_index) is the same one the
    # per-point simulate_pb calls used — stable under sweep order, so
    # cached figure data is reproduced run-for-run.
    rhos = list(scale.rho_grid)
    if float(rho) not in (float(r) for r in rhos):
        rhos = [rho]
    results = sweep_grid(
        scale.simulation_config,
        rhos,
        scale.sim_p_grid,
        scale.replications,
        seed=scale.seed,
        workers=scale.workers,
        point_seed=lambda r, i: (scale.seed, int(r), i),
        progress=scale.progress,
        store=scale.store,
        resume=scale.resume,
    )
    for r in rhos:
        grid = {
            float(p): results[(float(r), float(p))] for p in scale.sim_p_grid
        }
        _SIM_CACHE[(_scale_key(scale), float(r))] = grid
    return _SIM_CACHE[key]


def clear_caches() -> None:
    """Drop cached sweeps/grids (mainly for benchmark isolation)."""
    _ANALYSIS_CACHE.clear()
    _SIM_CACHE.clear()


# ----------------------------------------------------------------------
# analysis figures
# ----------------------------------------------------------------------
def _per_rho_series(
    scale: ExperimentScale, metric_key: str
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    grid = scale.analysis_p_grid
    series = {}
    for rho in scale.rho_grid:
        series[f"rho={rho}"] = analysis_sweep(scale, rho)[metric_key]
    return grid, series


def _optimal_point(
    scale: ExperimentScale, rho: float, metric_key: str
) -> dict[str, float]:
    """The optimal-``p`` point of one metric sweep at one density.

    Returns ``p`` (NaN when no feasible probability exists), all four
    metric values at that ``p``, and the flooding (``p = 1``) values as
    ``flooding_<metric>``, all read off :func:`analysis_sweep`.
    """
    dense = analysis_sweep(scale, rho)
    sense = METRIC_SENSES[_METRIC_QUERIES[metric_key].objectives[0]]
    i = best_index(dense[metric_key], sense)
    point = {"p": float(dense["p"][i]) if i is not None else float("nan")}
    for mk in _METRIC_QUERIES:
        point[mk] = float(dense[mk][i]) if i is not None else float("nan")
        point[f"flooding_{mk}"] = float(dense[mk][-1])
    return point


def fig4a(scale: ExperimentScale) -> FigureResult:
    """Fig. 4(a): analytic reachability within 5 phases vs ``(rho, p)``."""
    grid, series = _per_rho_series(scale, "reach_at_latency")
    return FigureResult(
        figure="fig4a",
        title="Reachability of PB_CAM in 5 time phases (analysis)",
        x_name="p",
        x_values=grid,
        series=series,
        notes={"latency_budget_phases": PaperParams.LATENCY_BUDGET_PHASES},
    )


def fig4b(scale: ExperimentScale) -> FigureResult:
    """Fig. 4(b): optimal ``p`` and achieved reachability vs ``rho``."""
    opt_p, opt_reach, flood_reach = [], [], []
    for rho in scale.rho_grid:
        pt = _optimal_point(scale, rho, "reach_at_latency")
        opt_p.append(pt["p"])
        opt_reach.append(pt["reach_at_latency"])
        flood_reach.append(pt["flooding_reach_at_latency"])  # p = 1 floods in CAM
    notes = {
        "plateau_mean_reachability": float(np.nanmean(opt_reach)),
        "flooding_over_optimal_at_max_rho": float(flood_reach[-1] / opt_reach[-1]),
        "paper_plateau": 0.72,
        "paper_flooding_over_optimal_at_rho140": 0.55,
    }
    return FigureResult(
        figure="fig4b",
        title="Optimal probability for max reachability in 5 phases (analysis)",
        x_name="rho",
        x_values=list(scale.rho_grid),
        series={
            "optimal_p": np.array(opt_p),
            "reachability": np.array(opt_reach),
            "flooding_reachability": np.array(flood_reach),
        },
        notes=notes,
    )


def fig5a(scale: ExperimentScale) -> FigureResult:
    """Fig. 5(a): analytic latency (phases) for 72% reachability."""
    grid, series = _per_rho_series(scale, "latency_at_reach")
    return FigureResult(
        figure="fig5a",
        title="Latency of PB_CAM for 72% reachability (analysis; NaN = infeasible)",
        x_name="p",
        x_values=grid,
        series=series,
        notes={"reach_target": PaperParams.ANALYSIS_REACH_TARGET},
    )


def fig5b(scale: ExperimentScale) -> FigureResult:
    """Fig. 5(b): optimal ``p`` minimizing latency for 72% reachability."""
    opt_p, opt_latency, flood_latency = [], [], []
    for rho in scale.rho_grid:
        pt = _optimal_point(scale, rho, "latency_at_reach")
        opt_p.append(pt["p"])
        opt_latency.append(pt["latency_at_reach"])
        flood_latency.append(pt["flooding_latency_at_reach"])
    return FigureResult(
        figure="fig5b",
        title="Optimal probability for min latency at 72% reachability (analysis)",
        x_name="rho",
        x_values=list(scale.rho_grid),
        series={
            "optimal_p": np.array(opt_p),
            "latency_phases": np.array(opt_latency),
            "flooding_latency_phases": np.array(flood_latency),
        },
        notes={
            "paper_claim": "optimal p identical to fig4b; ~5 phases flat",
            "max_optimal_latency": float(np.nanmax(opt_latency)),
        },
    )


def fig6a(scale: ExperimentScale) -> FigureResult:
    """Fig. 6(a): analytic broadcast count for 72% reachability."""
    grid, series = _per_rho_series(scale, "energy_at_reach")
    return FigureResult(
        figure="fig6a",
        title="Broadcasts of PB_CAM for 72% reachability (analysis; NaN = infeasible)",
        x_name="p",
        x_values=grid,
        series=series,
        notes={"reach_target": PaperParams.ANALYSIS_REACH_TARGET},
    )


def fig6b(scale: ExperimentScale) -> FigureResult:
    """Fig. 6(b): optimal ``p`` minimizing broadcasts for 72% reachability."""
    opt_p, opt_m, opt_latency = [], [], []
    for rho in scale.rho_grid:
        pt = _optimal_point(scale, rho, "energy_at_reach")
        opt_p.append(pt["p"])
        opt_m.append(pt["energy_at_reach"])
        opt_latency.append(pt["latency_at_reach"])
    return FigureResult(
        figure="fig6b",
        title="Optimal probability for min broadcasts at 72% reachability (analysis)",
        x_name="rho",
        x_values=list(scale.rho_grid),
        series={
            "optimal_p": np.array(opt_p),
            "broadcasts": np.array(opt_m),
            "latency_at_optimum": np.array(opt_latency),
        },
        notes={
            "max_optimal_p": float(np.nanmax(opt_p)),
            "paper_claim_p_band": "(0, 0.1]",
            "max_broadcasts": float(np.nanmax(opt_m)),
            "paper_claim_broadcasts": "within ~40",
            "latency_range_at_optimum": (
                float(np.nanmin(opt_latency)),
                float(np.nanmax(opt_latency)),
            ),
            "paper_claim_latency_range": "7 to 15 phases",
        },
    )


def fig7a(scale: ExperimentScale) -> FigureResult:
    """Fig. 7(a): analytic reachability with at most 35 broadcasts."""
    grid, series = _per_rho_series(scale, "reach_at_energy")
    return FigureResult(
        figure="fig7a",
        title="Reachability of PB_CAM using <= 35 broadcasts (analysis)",
        x_name="p",
        x_values=grid,
        series=series,
        notes={"energy_budget": PaperParams.ANALYSIS_ENERGY_BUDGET},
    )


def fig7b(scale: ExperimentScale) -> FigureResult:
    """Fig. 7(b): optimal ``p`` maximizing reachability within 35 broadcasts."""
    opt_p, opt_reach, flood_reach = [], [], []
    for rho in scale.rho_grid:
        pt = _optimal_point(scale, rho, "reach_at_energy")
        opt_p.append(pt["p"])
        opt_reach.append(pt["reach_at_energy"])
        flood_reach.append(pt["flooding_reach_at_energy"])
    return FigureResult(
        figure="fig7b",
        title="Optimal probability for max reachability within 35 broadcasts (analysis)",
        x_name="rho",
        x_values=list(scale.rho_grid),
        series={
            "optimal_p": np.array(opt_p),
            "reachability": np.array(opt_reach),
            "flooding_reachability": np.array(flood_reach),
        },
        notes={
            "max_optimal_p": float(np.nanmax(opt_p)),
            "mean_optimal_reachability": float(np.nanmean(opt_reach)),
            "paper_claim": "optimal p close to fig6b; reach ~0.70; flooding < 0.20",
            "max_flooding_reachability": float(np.nanmax(flood_reach)),
        },
    )


# ----------------------------------------------------------------------
# simulation figures
# ----------------------------------------------------------------------
def _sim_metric_series(
    scale: ExperimentScale, metric: Callable[[RunResult], float], name: str
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    grid = scale.sim_p_grid
    series = {}
    for rho in scale.rho_grid:
        runs_by_p = simulation_grid(scale, rho)
        means = np.empty(grid.size)
        for i, p in enumerate(grid):
            agg = aggregate_metric(runs_by_p[float(p)], metric, name=name)
            means[i] = agg.mean
        series[f"rho={rho}"] = means
    return grid, series


def _sim_figure_pair(
    scale: ExperimentScale,
    metric: Callable[[RunResult], float],
    sense: str,
    fig: str,
    title: str,
    value_name: str,
    extra_notes: dict | None = None,
) -> tuple[FigureResult, FigureResult]:
    grid, series = _sim_metric_series(scale, metric, value_name)
    panel_a = FigureResult(
        figure=f"{fig}a",
        title=f"{title} — sweep",
        x_name="p",
        x_values=grid,
        series=series,
        notes=extra_notes or {},
    )
    opt_p, opt_v = [], []
    for rho in scale.rho_grid:
        sweep = series[f"rho={rho}"]
        i = best_index(sweep, sense)
        opt_p.append(grid[i] if i is not None else np.nan)
        opt_v.append(sweep[i] if i is not None else np.nan)
    panel_b = FigureResult(
        figure=f"{fig}b",
        title=f"{title} — optimal probability",
        x_name="rho",
        x_values=list(scale.rho_grid),
        series={"optimal_p": np.array(opt_p), value_name: np.array(opt_v)},
        notes=extra_notes or {},
    )
    return panel_a, panel_b


def fig8a(scale: ExperimentScale) -> FigureResult:
    """Fig. 8(a): simulated reachability within 5 phases."""
    return _sim_figure_pair(
        scale,
        lambda r: r.reachability_after_phases(PaperParams.LATENCY_BUDGET_PHASES),
        "max",
        "fig8",
        "Simulated reachability of PB_CAM in 5 time phases",
        "reachability",
        {"paper_plateau": 0.63},
    )[0]


def fig8b(scale: ExperimentScale) -> FigureResult:
    """Fig. 8(b): simulated optimal ``p`` for reachability in 5 phases."""
    return _sim_figure_pair(
        scale,
        lambda r: r.reachability_after_phases(PaperParams.LATENCY_BUDGET_PHASES),
        "max",
        "fig8",
        "Simulated reachability of PB_CAM in 5 time phases",
        "reachability",
        {"paper_plateau": 0.63},
    )[1]


def fig9a(scale: ExperimentScale) -> FigureResult:
    """Fig. 9(a): simulated latency for 63% reachability."""
    return _sim_figure_pair(
        scale,
        lambda r: r.latency_phases_to(PaperParams.SIM_REACH_TARGET),
        "min",
        "fig9",
        "Simulated latency of PB_CAM for 63% reachability",
        "latency_phases",
        {"paper_optimal_latency": 5.0},
    )[0]


def fig9b(scale: ExperimentScale) -> FigureResult:
    """Fig. 9(b): simulated optimal ``p`` minimizing that latency."""
    return _sim_figure_pair(
        scale,
        lambda r: r.latency_phases_to(PaperParams.SIM_REACH_TARGET),
        "min",
        "fig9",
        "Simulated latency of PB_CAM for 63% reachability",
        "latency_phases",
        {"paper_optimal_latency": 5.0},
    )[1]


def fig10a(scale: ExperimentScale) -> FigureResult:
    """Fig. 10(a): simulated broadcasts for 63% reachability."""
    return _sim_figure_pair(
        scale,
        lambda r: r.broadcasts_to(PaperParams.SIM_REACH_TARGET),
        "min",
        "fig10",
        "Simulated broadcasts of PB_CAM for 63% reachability",
        "broadcasts",
        {"paper_optimal_broadcasts": 80.0, "paper_optimal_p_band": "<= 0.2"},
    )[0]


def fig10b(scale: ExperimentScale) -> FigureResult:
    """Fig. 10(b): simulated optimal ``p`` minimizing broadcast count."""
    return _sim_figure_pair(
        scale,
        lambda r: r.broadcasts_to(PaperParams.SIM_REACH_TARGET),
        "min",
        "fig10",
        "Simulated broadcasts of PB_CAM for 63% reachability",
        "broadcasts",
        {"paper_optimal_broadcasts": 80.0, "paper_optimal_p_band": "<= 0.2"},
    )[1]


def fig11a(scale: ExperimentScale) -> FigureResult:
    """Fig. 11(a): simulated reachability using at most 80 broadcasts."""
    return _sim_figure_pair(
        scale,
        lambda r: r.reachability_within_budget(PaperParams.SIM_ENERGY_BUDGET),
        "max",
        "fig11",
        "Simulated reachability of PB_CAM using <= 80 broadcasts",
        "reachability",
        {"paper_optimal_p_band": "<= 0.2"},
    )[0]


def fig11b(scale: ExperimentScale) -> FigureResult:
    """Fig. 11(b): simulated optimal ``p`` within the 80-broadcast budget."""
    return _sim_figure_pair(
        scale,
        lambda r: r.reachability_within_budget(PaperParams.SIM_ENERGY_BUDGET),
        "max",
        "fig11",
        "Simulated reachability of PB_CAM using <= 80 broadcasts",
        "reachability",
        {"paper_optimal_p_band": "<= 0.2"},
    )[1]


# ----------------------------------------------------------------------
# figure 12
# ----------------------------------------------------------------------
def fig12(scale: ExperimentScale) -> FigureResult:
    """Fig. 12: flooding success rate vs the optimal ``p`` of Fig. 4(b).

    The paper observes their ratio is nearly constant (~11) across
    densities, suggesting the optimal probability can be set from the
    locally observable success rate without knowing the density.
    """
    opt_p, rate, ratio = [], [], []
    for rho in scale.rho_grid:
        p_star = _optimal_point(scale, rho, "reach_at_latency")["p"]
        sr = flooding_success_rate(scale.analysis_config(rho))
        opt_p.append(p_star)
        rate.append(sr.rate)
        ratio.append(p_star / sr.rate)
    return FigureResult(
        figure="fig12",
        title="Flooding success rate vs optimal probability (analysis)",
        x_name="rho",
        x_values=list(scale.rho_grid),
        series={
            "optimal_p": np.array(opt_p),
            "flooding_success_rate": np.array(rate),
            "ratio": np.array(ratio),
        },
        notes={
            "ratio_mean": float(np.nanmean(ratio)),
            "ratio_spread": float(np.nanmax(ratio) - np.nanmin(ratio)),
            "paper_ratio": PaperParams.FIG12_RATIO,
            "receivers_convention": "uninformed (see EXPERIMENTS.md)",
        },
    )


# ----------------------------------------------------------------------
FIGURES: dict[str, Callable[[ExperimentScale], FigureResult]] = {
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig8a": fig8a,
    "fig8b": fig8b,
    "fig9a": fig9a,
    "fig9b": fig9b,
    "fig10a": fig10a,
    "fig10b": fig10b,
    "fig11a": fig11a,
    "fig11b": fig11b,
    "fig12": fig12,
}


def generate_figure(name: str, scale: ExperimentScale) -> FigureResult:
    """Generate one registered figure by name."""
    try:
        fn = FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; available: {', '.join(sorted(FIGURES))}"
        ) from None
    return fn(scale)
