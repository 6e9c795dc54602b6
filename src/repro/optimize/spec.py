"""The query model: bounds, objectives, and metric evaluation.

A deployment question — "best ``p`` for my network under these
constraints" — is an :class:`OptimizeQuery`: each of the paper's three
broadcast metrics (reachability, latency in phases, energy as expected
transmissions) is either a *hard bound* or an *objective*.  The paper's
four metrics (Figs. 4–7) are the four one-bound/one-objective corners
of this space (:data:`repro.analysis.optimizer.METRICS`), so the
analytical sweeps and optima read every value through
:func:`evaluate_trace`, which matches the corresponding
:class:`~repro.analysis.trace.BroadcastTrace` metric method bit for bit
(pinned by tests):

* bound ``latency <= L``, maximize reachability  — Fig. 4,
* bound ``reachability >= R``, minimize latency  — Fig. 5,
* bound ``reachability >= R``, minimize energy   — Fig. 6,
* bound ``energy <= E``, maximize reachability   — Fig. 7.

Evaluation follows a single stopping rule: the broadcast is observed up
to ``t_stop``, the earliest of the latency budget, the moment the
energy budget is exhausted, the crossing of the reachability target,
and the end of the trace.  All three metrics are then read off at
``t_stop``, which is what makes combined bounds (e.g. ``reach >= 0.95``
*and* ``latency <= 5``) well defined: the query is infeasible at ``p``
exactly when the target is not crossed before the caps.

:func:`evaluate_run` is the slot-resolution analog for simulated
:class:`~repro.sim.results.RunResult` records, matching the per-run
metric methods exactly; :func:`evaluate_runs` aggregates replications
with the figures' convention (mean over feasible runs, infeasible runs
excluded but counted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.trace import BroadcastTrace
from repro.errors import ConfigurationError, InfeasibleConstraintError
from repro.sim.results import RunResult

__all__ = [
    "METRIC_NAMES",
    "METRIC_SENSES",
    "OptimizeQuery",
    "Evaluation",
    "evaluate_trace",
    "evaluate_run",
    "evaluate_runs",
    "better",
    "best_evaluation",
    "objective_key",
]

#: The three broadcast metrics a query may bound or optimize.
METRIC_NAMES: tuple[str, ...] = ("reachability", "latency", "energy")

#: Optimization sense per metric: reachability is maximized, latency
#: (phases) and energy (expected transmissions) are minimized.  A bound
#: is always on the unfavourable side: ``reachability >= value``,
#: ``latency <= value``, ``energy <= value``.
METRIC_SENSES: dict[str, str] = {
    "reachability": "max",
    "latency": "min",
    "energy": "min",
}

#: Slack used when checking a crossing time against a stopping cap;
#: absorbs the one-ulp noise of interpolating the same trace twice.
_EPS = 1e-12


@dataclass(frozen=True)
class OptimizeQuery:
    """One deployment question over the three broadcast metrics.

    Attributes
    ----------
    bounds:
        Hard constraints, metric name to value: ``reachability >= v``,
        ``latency <= v`` (phases), ``energy <= v`` (transmissions).
    objectives:
        Metrics to optimize, in priority order (the first is the
        primary objective; search compares lexicographically and the
        frontier is Pareto over all of them).  Must be non-empty and
        disjoint from the bounds.
    min_feasible:
        Fraction of Monte-Carlo replications that must individually
        satisfy the bounds for an aggregated simulation evaluation to
        count as feasible (surrogate evaluations ignore it).
    """

    bounds: Mapping[str, float] = field(default_factory=dict)
    objectives: tuple[str, ...] = ()
    min_feasible: float = 0.5

    def __post_init__(self) -> None:
        bounds = dict(self.bounds)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "objectives", tuple(self.objectives))
        for name, value in bounds.items():
            if name not in METRIC_NAMES:
                raise ConfigurationError(
                    f"unknown bound metric {name!r}; expected one of {METRIC_NAMES}"
                )
            v = float(value)
            if not math.isfinite(v) or v <= 0:
                raise ConfigurationError(f"bound {name} must be finite and > 0, got {value}")
            if name == "reachability" and v > 1:
                raise ConfigurationError(f"reachability bound must be <= 1, got {value}")
            bounds[name] = v
        if not self.objectives:
            raise ConfigurationError("a query needs at least one objective")
        seen: set[str] = set()
        for name in self.objectives:
            if name not in METRIC_NAMES:
                raise ConfigurationError(
                    f"unknown objective {name!r}; expected one of {METRIC_NAMES}"
                )
            if name in bounds:
                raise ConfigurationError(
                    f"{name!r} cannot be both a bound and an objective"
                )
            if name in seen:
                raise ConfigurationError(f"duplicate objective {name!r}")
            seen.add(name)
        if not 0.0 < self.min_feasible <= 1.0:
            raise ConfigurationError(
                f"min_feasible must be in (0, 1], got {self.min_feasible}"
            )


@dataclass(frozen=True)
class Evaluation:
    """All three metrics of one probability, read at the stopping time.

    ``violation`` is the reachability shortfall when the query is
    infeasible at this ``p`` (how far below the target the trace stood
    when the caps ran out) — the hillclimb's guidance signal while it
    is outside the feasible region.  ``feasible_fraction`` is 1 for
    surrogate evaluations and the per-replication feasibility rate for
    aggregated simulation evaluations.
    """

    p: float
    reachability: float
    latency: float
    energy: float
    feasible: bool
    violation: float = 0.0
    source: str = "surrogate"
    feasible_fraction: float = 1.0


def _budget_time(trace: BroadcastTrace, budget: float) -> float:
    """The fractional phase at which a broadcast budget is exhausted.

    Mirrors the inversion of
    :meth:`~repro.analysis.trace.BroadcastTrace.reachability_within_energy`
    exactly (``searchsorted(..., side="right")`` on the cumulative
    broadcasts, latest time the budget still holds), so
    ``trace.reachability_after(_budget_time(trace, b))`` is bit-identical
    to ``trace.reachability_within_energy(b)``.
    """
    cum_b = trace.cumulative_broadcasts
    if budget >= cum_b[-1]:
        return float(trace.phases)
    b_values = np.concatenate(([0.0], cum_b))
    idx = int(np.searchsorted(b_values, budget, side="right"))
    prev_b = b_values[idx - 1]
    gain = b_values[idx] - prev_b
    return float((idx - 1) + (budget - prev_b) / gain)


def evaluate_trace(trace: BroadcastTrace, query: OptimizeQuery) -> Evaluation:
    """Evaluate one analytical trace under a query's stopping rule.

    For each of the paper's four single-metric queries the objective is
    bit-identical to the trace's own metric method (``reachability_after``,
    ``latency_to``, ``broadcasts_to``, ``reachability_within_energy``);
    combined bounds compose through the shared ``t_stop``.
    """
    bounds = query.bounds
    t_cap = float(trace.phases)
    if "latency" in bounds:
        t_cap = min(t_cap, bounds["latency"])
    if "energy" in bounds:
        t_cap = min(t_cap, _budget_time(trace, bounds["energy"]))

    crossing: float | None = None
    feasible = True
    violation = 0.0
    if "reachability" in bounds:
        target = bounds["reachability"]
        try:
            crossing = trace.latency_to(target)
        except InfeasibleConstraintError:
            crossing = None
        if crossing is not None and crossing <= t_cap + _EPS:
            t_stop = min(crossing, t_cap)
        else:
            feasible = False
            t_stop = t_cap
            violation = max(0.0, target - trace.reachability_after(t_cap))
    else:
        t_stop = t_cap

    reach = trace.reachability_after(t_stop)
    latency = crossing if (feasible and crossing is not None) else t_stop
    energy = trace.broadcasts_at(t_stop)
    return Evaluation(
        p=float(trace.p),
        reachability=float(reach),
        latency=float(latency),
        energy=float(energy),
        feasible=feasible,
        violation=violation,
        source="surrogate",
    )


def evaluate_run(run: RunResult, query: OptimizeQuery) -> Evaluation:
    """Slot-resolution analog of :func:`evaluate_trace` for one MC run.

    Matches the :class:`~repro.sim.results.RunResult` metric methods
    exactly at the four paper queries: ``reachability_after_phases``,
    ``latency_phases_to``, ``broadcasts_to`` and
    ``reachability_within_budget`` (pinned by tests).
    """
    bounds = query.bounds
    spp = run.slots_per_phase
    cum_r = np.cumsum(run.new_informed_by_slot) / run.n_field_nodes
    cum_b = np.cumsum(run.broadcasts_by_slot)
    n = len(cum_r)

    cap = n - 1
    if "latency" in bounds:
        # Same slot index as RunResult.reachability_after_phases.
        cap = min(cap, min(int(math.ceil(bounds["latency"] * spp)), n) - 1)
    if "energy" in bounds:
        # Same index as RunResult.reachability_within_budget.
        within = np.flatnonzero(cum_b <= bounds["energy"])
        cap = min(cap, int(within[-1]) if len(within) else -1)

    crossing: int | None = None
    feasible = True
    violation = 0.0
    if "reachability" in bounds:
        target = bounds["reachability"]
        if n and cum_r[-1] >= target:
            crossing = int(np.searchsorted(cum_r, target))
        if crossing is not None and crossing <= cap:
            stop = crossing
        else:
            feasible = False
            stop = cap
            reach_at_cap = float(cum_r[cap]) if cap >= 0 else 0.0
            violation = max(0.0, target - reach_at_cap)
    else:
        stop = cap

    reach = float(cum_r[stop]) if stop >= 0 else 0.0
    if feasible and crossing is not None:
        latency = (crossing + 1) / spp
    else:
        latency = (stop + 1) / spp if stop >= 0 else 0.0
    energy = float(cum_b[stop]) if stop >= 0 else 0.0
    return Evaluation(
        p=float("nan"),
        reachability=reach,
        latency=float(latency),
        energy=energy,
        feasible=feasible,
        violation=violation,
        source="simulation",
    )


def evaluate_runs(
    runs: Sequence[RunResult], query: OptimizeQuery, p: float
) -> Evaluation:
    """Aggregate replications of one ``p`` into a single evaluation.

    Metric values are means over the *feasible* replications — the same
    convention as :func:`repro.sim.results.aggregate_metric` and the
    paper's figures (infeasible runs are excluded, not zero-filled).
    The point is feasible when at least ``query.min_feasible`` of the
    replications individually satisfy the bounds; ``violation``
    averages the per-run reachability shortfalls for search guidance.
    """
    if not runs:
        raise ConfigurationError("evaluate_runs needs at least one run")
    evs = [evaluate_run(r, query) for r in runs]
    feas = [e for e in evs if e.feasible]
    frac = len(feas) / len(evs)
    feasible = frac >= query.min_feasible
    if feas:
        reach = float(np.mean([e.reachability for e in feas]))
        latency = float(np.mean([e.latency for e in feas]))
        energy = float(np.mean([e.energy for e in feas]))
    else:
        reach = float(np.mean([e.reachability for e in evs]))
        latency = float("nan")
        energy = float("nan")
    violation = 0.0 if feasible else float(np.mean([e.violation for e in evs]))
    return Evaluation(
        p=float(p),
        reachability=reach,
        latency=latency,
        energy=energy,
        feasible=feasible,
        violation=violation,
        source="simulation",
        feasible_fraction=frac,
    )


def objective_key(ev: Evaluation, query: OptimizeQuery) -> tuple[float, ...]:
    """Minimize-normalized objective vector: smaller is better, per axis."""
    out = []
    for name in query.objectives:
        v = float(getattr(ev, name))
        out.append(-v if METRIC_SENSES[name] == "max" else v)
    return tuple(out)


def better(a: Evaluation, b: Evaluation, query: OptimizeQuery) -> bool:
    """Strict total order used by the hillclimb and ``best`` selection.

    Feasible beats infeasible; between infeasible points the smaller
    bound violation wins; between feasible points the objectives
    compare lexicographically in query order.  Every tie breaks toward
    the lower ``p`` — the convention of the figures' dense-grid
    ``argmax``/``argmin`` (first index wins), which is what lets the
    search reproduce their optima exactly on plateaus.
    """
    if a.feasible != b.feasible:
        return a.feasible
    if not a.feasible:
        if a.violation != b.violation:
            return a.violation < b.violation
        return a.p < b.p
    ka, kb = objective_key(a, query), objective_key(b, query)
    if ka != kb:
        return ka < kb
    return a.p < b.p


def best_evaluation(
    evaluations: Iterable[Evaluation], query: OptimizeQuery
) -> Evaluation | None:
    """The best *feasible* evaluation under :func:`better`, or ``None``."""
    best: Evaluation | None = None
    for ev in evaluations:
        if not ev.feasible:
            continue
        if best is None or better(ev, best, query):
            best = ev
    return best
