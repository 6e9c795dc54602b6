"""Optimal broadcast-probability search (the "Choose p" box of Fig. 1(b)).

The paper optimizes ``p`` by sweeping a grid (0.01 .. 1.00 in steps of
0.01 for the analysis; Sec. 4.2.3).  Each of its four metrics (Sec. 4.1)
is one bound and one objective of an
:class:`~repro.optimize.spec.OptimizeQuery` (:data:`METRICS`,
:func:`paper_query`), so every value here is read off a ring-model trace
by :func:`~repro.optimize.spec.evaluate_trace`, the stopping rule the
deployment planner searches with.  :func:`sweep_metric` is the
exhaustive policy over that query (every rung of the ladder, one
batched recursion); :func:`optimal_probability` picks the best rung
(:func:`best_index`) and can optionally refine it by golden-section
search between its grid neighbors.

Infeasible points (a reachability target that a small ``p`` can never
attain) evaluate to ``NaN`` in sweeps and are excluded from the optimum,
matching the gaps in the paper's Figs. 5(a)/6(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.metrics import QUIESCENCE_PHASES
from repro.analysis.ring_model import RingModel
from repro.analysis.trace import BroadcastTrace
from repro.errors import InfeasibleConstraintError
from repro.optimize.search import default_probability_grid
from repro.optimize.spec import METRIC_SENSES, OptimizeQuery, evaluate_trace
from repro.utils.validation import check_in, check_positive

__all__ = [
    "METRICS",
    "OptimizationResult",
    "TradeoffCurve",
    "best_index",
    "default_probability_grid",
    "paper_query",
    "trace_value",
    "sweep_metric",
    "optimal_probability",
    "tradeoff_curve",
    "optimal_intensity",
]


#: The paper's four metrics as ``(bound, objective)`` pairs over the
#: three broadcast metrics of :mod:`repro.optimize.spec`; a metric's
#: constraint value is its bound.
METRICS: dict[str, tuple[str, str]] = {
    "reachability_at_latency": ("latency", "reachability"),
    "latency_at_reachability": ("reachability", "latency"),
    "energy_at_reachability": ("reachability", "energy"),
    "reachability_at_energy": ("energy", "reachability"),
}


def paper_query(metric: str, constraint: float) -> OptimizeQuery:
    """One paper metric under one constraint value, as a query."""
    bound, objective = METRICS[check_in("metric", metric, METRICS)]
    return OptimizeQuery(bounds={bound: constraint}, objectives=(objective,))


def _horizon(query: OptimizeQuery) -> int:
    """Recursion phases a query needs: its latency budget, else quiescence."""
    latency = query.bounds.get("latency")
    return QUIESCENCE_PHASES if latency is None else math.ceil(latency)


def trace_value(trace: BroadcastTrace, query: OptimizeQuery) -> float:
    """The query's first objective at ``trace.p``, ``NaN`` when infeasible."""
    ev = evaluate_trace(trace, query)
    return float(getattr(ev, query.objectives[0])) if ev.feasible else math.nan


def best_index(values: np.ndarray, sense: str) -> int | None:
    """Index of the best finite value, or ``None`` when there is none.

    Non-finite entries (NaN infeasible points, inf overflow) never win,
    and exact ties resolve to the first index: the lowest ``p`` on an
    ascending grid, the tie-break :func:`repro.optimize.spec.better`
    uses too.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        return None
    if sense == "max":
        return int(np.argmax(np.where(finite, values, -np.inf)))
    return int(np.argmin(np.where(finite, values, np.inf)))


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an optimal-probability search.

    Attributes
    ----------
    metric:
        Metric name (a key of :data:`METRICS`).
    constraint:
        The constraint value the metric was evaluated under.
    p:
        The best broadcast probability found.
    value:
        The metric value at ``p``.
    p_grid, values:
        The sweep used for the search (``values`` holds ``NaN`` at
        infeasible points); useful for plotting the full curve.
    config:
        The analytical configuration.
    """

    metric: str
    constraint: float
    p: float
    value: float
    p_grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    config: AnalysisConfig = field(repr=False)

    @property
    def feasible_fraction(self) -> float:
        """Fraction of swept probabilities where the constraint was feasible."""
        return float(np.mean(~np.isnan(self.values)))


# Closed-form analytical sweep; the ring recursion is deterministic and
# draws no random numbers, so there is no seed to thread.
def sweep_metric(
    config: AnalysisConfig | RingModel,
    metric: str,
    constraint: float,
    p_grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one metric over a probability grid.

    Returns
    -------
    (p_grid, values):
        ``values[i]`` is the metric at ``p_grid[i]``, ``NaN`` where the
        constraint is infeasible.
    """
    query = paper_query(metric, constraint)
    model = config if isinstance(config, RingModel) else RingModel(config)
    grid = default_probability_grid() if p_grid is None else np.asarray(p_grid, float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("p_grid must be a non-empty 1-D array")
    # One batched recursion evaluates the whole grid.
    traces = model.run_batch(grid, max_phases=_horizon(query))
    return grid, np.array([trace_value(trace, query) for trace in traces])


def _better(a: float, b: float, sense: str) -> bool:
    return a > b if sense == "max" else a < b


def _golden_refine(
    evaluate: Callable[[float], float],
    sense: str,
    lo: float,
    hi: float,
    *,
    iterations: int = 24,
) -> tuple[float, float]:
    """Golden-section search for a unimodal metric on ``[lo, hi]``.

    Infeasible (``NaN``) evaluations are treated as worst-possible,
    which pushes the search back into the feasible region.
    """
    worst = -math.inf if sense == "max" else math.inf

    def f(p: float) -> float:
        value = evaluate(p)
        return worst if math.isnan(value) else value

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if _better(fc, fd, sense):
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    p_best = c if _better(fc, fd, sense) else d
    return p_best, f(p_best)


def optimal_intensity(
    config: AnalysisConfig | RingModel,
    metric: str,
    constraint: float,
    *,
    p_grid: np.ndarray | None = None,
    refine: bool = True,
) -> float:
    """The density-free optimum: the product ``p* · rho``.

    The ring recursion is invariant under ``(rho, p) → (k·rho, p/k)``
    (``g ∝ rho`` and ``mu`` sees ``g·p``; arrivals rescale by ``k``), so
    for any metric whose constraint is density-free the optimal
    *transmission intensity* ``p·rho`` — expected transmitters per
    transmission-range area per phase — is one number for the whole
    density family.  Tuning at a new density reduces to
    ``p = optimal_intensity / rho`` (clipped to 1), which is how the
    library implements Fig. 4(b)'s "rapidly decaying" curve in closed
    form once a single optimization has been paid.

    The invariance is exact for the expectation recursion; at small
    ``rho`` the clip ``p ≤ 1`` binds and the family leaves the invariant
    manifold (visible as the flattening of Fig. 4(b)'s left end).
    """
    result = optimal_probability(
        config, metric, constraint, p_grid=p_grid, refine=refine
    )
    return result.p * result.config.rho


@dataclass(frozen=True)
class TradeoffCurve:
    """The reachability/energy trade-off at a fixed latency budget.

    One point per swept probability: the reachability achieved within
    the budget and the broadcasts spent getting there.  ``efficient``
    marks the Pareto-optimal subset (no other point has both more
    reachability and fewer broadcasts) — the menu a deployment planner
    actually chooses from.
    """

    latency: float
    p_grid: np.ndarray = field(repr=False)
    reachability: np.ndarray = field(repr=False)
    broadcasts: np.ndarray = field(repr=False)
    efficient: np.ndarray = field(repr=False)
    config: AnalysisConfig = field(repr=False)

    def frontier(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(p, reachability, broadcasts)`` of the efficient points,
        ordered by increasing energy."""
        idx = np.flatnonzero(self.efficient)
        order = idx[np.argsort(self.broadcasts[idx])]
        return self.p_grid[order], self.reachability[order], self.broadcasts[order]


def tradeoff_curve(
    config: AnalysisConfig | RingModel,
    latency: float,
    *,
    p_grid: np.ndarray | None = None,
) -> TradeoffCurve:
    """Sweep the reachability-vs-energy trade-off at one latency budget.

    For every probability, one ring-model run yields both the
    reachability within ``latency`` phases and the broadcasts spent by
    then; the Pareto-efficient subset is marked.  This generalizes the
    paper's single-metric optima: metrics 1 and 5 are the two endpoints
    of this frontier.
    """
    latency = check_positive("latency", latency)
    query = OptimizeQuery(
        bounds={"latency": latency}, objectives=("reachability", "energy")
    )
    model = config if isinstance(config, RingModel) else RingModel(config)
    grid = default_probability_grid() if p_grid is None else np.asarray(p_grid, float)
    reach = np.empty(grid.size)
    energy = np.empty(grid.size)
    for i, trace in enumerate(model.run_batch(grid, max_phases=_horizon(query))):
        ev = evaluate_trace(trace, query)
        reach[i] = ev.reachability
        energy[i] = ev.energy
    # Pareto filter: efficient iff no point strictly dominates.
    efficient = np.ones(grid.size, dtype=bool)
    for i in range(grid.size):
        dominated = (reach >= reach[i]) & (energy <= energy[i])
        dominated &= (reach > reach[i]) | (energy < energy[i])
        if np.any(dominated):
            efficient[i] = False
    return TradeoffCurve(
        latency=latency,
        p_grid=grid,
        reachability=reach,
        broadcasts=energy,
        efficient=efficient,
        config=model.config,
    )


def optimal_probability(
    config: AnalysisConfig | RingModel,
    metric: str,
    constraint: float,
    *,
    p_grid: np.ndarray | None = None,
    refine: bool = False,
) -> OptimizationResult:
    """Find the broadcast probability optimizing one paper metric.

    Parameters
    ----------
    config:
        Analytical configuration, or a prebuilt model (e.g. a
        :class:`~repro.analysis.carrier_model.CarrierRingModel` to
        optimize under carrier-sense collisions).
    metric:
        One of :data:`METRICS`.
    constraint:
        Latency budget (phases), reachability target, or broadcast
        budget, depending on the metric.
    p_grid:
        Probability grid; defaults to the paper's 0.01-step grid.
    refine:
        If true, polish the best grid point with golden-section search
        between its grid neighbors (the metrics are smooth and, over the
        paper's parameter range, unimodal in ``p``).

    Raises
    ------
    InfeasibleConstraintError
        If no grid point satisfies the constraint.
    """
    query = paper_query(metric, constraint)
    sense = METRIC_SENSES[query.objectives[0]]
    model = config if isinstance(config, RingModel) else RingModel(config)
    grid, values = sweep_metric(model, metric, constraint, p_grid)
    best = best_index(values, sense)
    if best is None:
        raise InfeasibleConstraintError(
            f"{metric} with constraint {constraint} is infeasible for every "
            f"swept probability (rho={model.config.rho})"
        )
    p_best = float(grid[best])
    v_best = float(values[best])

    if refine and grid.size >= 2:
        lo = float(grid[max(best - 1, 0)])
        hi = float(grid[min(best + 1, grid.size - 1)])
        if hi > lo:
            horizon = _horizon(query)
            p_ref, v_ref = _golden_refine(
                lambda p: trace_value(model.run(p, max_phases=horizon), query),
                sense,
                lo,
                hi,
            )
            if _better(v_ref, v_best, sense):
                p_best, v_best = float(p_ref), float(v_ref)

    return OptimizationResult(
        metric=metric,
        constraint=float(constraint),
        p=p_best,
        value=v_best,
        p_grid=grid,
        values=values,
        config=model.config,
    )
