"""The library entry point: ``optimize()`` and its result record.

One call answers "best ``p`` for this deployment under these
constraints" through the full two-tier pipeline: shotgun + hillclimb
search over a fixed probability ladder with the analytical ring model
as surrogate, then Monte-Carlo verification of the frontier (plus a
tolerance band of near-optimal probes) through the result-store
scheduler.  The surrogate's traces are memoized once per density and
process (:meth:`~repro.optimize.surrogate.SurrogateModel.shared`), so a
query at a density seen before runs no new ring recursion; with a warm
store, a repeated or adjacent query performs zero new simulator runs.

Telemetry follows the repo conventions: ``optimize.query``,
``optimize.search`` and ``optimize.verify`` spans with their counters
behind the hoisted begin guard, :class:`~repro.obs.events.SearchStep`
trace events behind the hoisted emit guard, and an optional provenance
manifest naming the query, seed entropy, candidates and frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.config import AnalysisConfig
from repro.errors import ConfigurationError
from repro.obs import provenance as obs_provenance
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.events import SearchStep
from repro.optimize.frontier import FrontierSet
from repro.optimize.search import (
    SearchOutcome,
    default_probability_grid,
    search_frontier,
)
from repro.optimize.spec import Evaluation, OptimizeQuery, better
from repro.optimize.surrogate import SurrogateModel
from repro.optimize.verify import select_candidates, verify_candidates
from repro.sim.config import SimulationConfig
from repro.sim.runner import PathLike, StoreLike
from repro.utils.rng import SeedLike, as_seed_sequence

__all__ = ["FrontierPoint", "OptimizeResult", "optimize"]


@dataclass(frozen=True)
class FrontierPoint:
    """One verified (or surrogate-only) point of the result frontier."""

    rung: int
    p: float
    surrogate: Evaluation
    simulated: Evaluation | None = None

    @property
    def evaluation(self) -> Evaluation:
        """The authoritative evaluation: simulation when verified."""
        return self.simulated if self.simulated is not None else self.surrogate


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one :func:`optimize` call.

    Attributes
    ----------
    query:
        The bounds/objectives asked.
    resolution:
        Ladder step (``p = (rung + 1) * resolution``).
    frontier:
        The verified Pareto frontier (Pareto over simulation
        evaluations when verification ran, over surrogate evaluations
        otherwise), ordered by increasing ``p``.  Empty when no
        candidate satisfied the bounds.
    best:
        The frontier point winning the lexicographic objective order
        (``None`` when the frontier is empty).
    surrogate_frontier:
        The analytical frontier the search produced, before
        verification.
    candidates:
        Ladder rungs sent to the simulator.
    surrogate_probes:
        Ladder rungs the search evaluated on the surrogate (whether the
        shared trace memo served them or the recursion ran).
    sim_tasks:
        Monte-Carlo runs dispatched (``len(candidates) *
        replications``; a warm store serves them without computing).
    seed_entropy:
        Root entropy driving candidate seeds (for replay).
    """

    query: OptimizeQuery
    resolution: float
    frontier: tuple[FrontierPoint, ...]
    best: FrontierPoint | None
    surrogate_frontier: tuple[Evaluation, ...]
    candidates: tuple[int, ...]
    surrogate_probes: int
    sim_tasks: int
    seed_entropy: object = None

    def to_dict(self) -> dict:
        """A JSON-ready summary (the ``repro-optimize --json`` payload)."""

        def _ev(ev: Evaluation | None) -> dict | None:
            if ev is None:
                return None
            return {
                "p": _nan_none(ev.p),
                "reachability": _nan_none(ev.reachability),
                "latency": _nan_none(ev.latency),
                "energy": _nan_none(ev.energy),
                "feasible": ev.feasible,
                "violation": _nan_none(ev.violation),
                "source": ev.source,
                "feasible_fraction": _nan_none(ev.feasible_fraction),
            }

        return {
            "query": {
                "bounds": dict(self.query.bounds),
                "objectives": list(self.query.objectives),
                "min_feasible": self.query.min_feasible,
            },
            "resolution": self.resolution,
            "frontier": [
                {
                    "rung": pt.rung,
                    "p": pt.p,
                    "surrogate": _ev(pt.surrogate),
                    "simulated": _ev(pt.simulated),
                }
                for pt in self.frontier
            ],
            "best_p": None if self.best is None else self.best.p,
            "surrogate_frontier_p": [ev.p for ev in self.surrogate_frontier],
            "candidates": list(self.candidates),
            "surrogate_probes": self.surrogate_probes,
            "sim_tasks": self.sim_tasks,
            "seed_entropy": self.seed_entropy,
        }


def _nan_none(v: float) -> float | None:
    return None if math.isnan(v) else float(v)


def optimize(
    config: SimulationConfig | AnalysisConfig,
    *,
    objectives: Sequence[str],
    bounds: Mapping[str, float] | None = None,
    seed: SeedLike = None,
    resolution: float = 0.001,
    restarts: int = 4,
    neighborhood: int = 6,
    max_steps: int = 64,
    tolerance: float = 0.05,
    verify: bool = True,
    replications: int = 30,
    max_verify: int = 4,
    min_feasible: float = 0.5,
    engine: str = "vector",
    alignment: str = "phase",
    workers: int | None = 1,
    store: StoreLike = None,
    resume: bool = False,
    retries: int = 1,
    progress: bool = False,
    manifest_dir: PathLike = None,
) -> OptimizeResult:
    """Find the Pareto frontier of broadcast probabilities for a query.

    Parameters
    ----------
    config:
        The deployment: a :class:`~repro.sim.config.SimulationConfig`
        (carrier-sense scenarios automatically get the Appendix-A
        surrogate) or a bare
        :class:`~repro.analysis.config.AnalysisConfig`.
    objectives:
        Metrics to optimize (``"reachability"``/``"latency"``/
        ``"energy"``), primary first.
    bounds:
        Hard constraints: ``reachability >= v``, ``latency <= v``,
        ``energy <= v``.
    seed:
        Root seed.  Candidate seeds are a pure function of
        ``(seed, rung)`` (see
        :func:`~repro.optimize.search.candidate_seed`), so two searches
        with the same seed share store entries for shared rungs.
    resolution:
        Probability-ladder step (default 0.001: rungs 0.001..1.000).
    restarts, neighborhood, max_steps:
        Search knobs (see :func:`~repro.optimize.search.search_frontier`).
    tolerance:
        Relative band behind the surrogate frontier from which
        near-optimal probes are also verified.
    verify:
        If false, skip the simulator entirely and return the surrogate
        frontier (``simulated`` stays ``None``).
    replications:
        Monte-Carlo runs per verified candidate (the paper's 30).
    max_verify:
        Cap on candidates sent to the simulator.
    min_feasible:
        Per-candidate feasibility quorum (see
        :class:`~repro.optimize.spec.OptimizeQuery`).
    engine, alignment, workers, store, resume, retries, progress,
    manifest_dir:
        Forwarded to the Monte-Carlo sweep (see
        :func:`~repro.sim.runner.sweep_grid`).
    """
    if isinstance(config, AnalysisConfig):
        sim_config = SimulationConfig(analysis=config)
    else:
        sim_config = config
    query = OptimizeQuery(
        bounds=dict(bounds or {}),
        objectives=tuple(objectives),
        min_feasible=min_feasible,
    )
    if verify:
        if replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {replications}"
            )
        if max_verify < 1:
            raise ConfigurationError(f"max_verify must be >= 1, got {max_verify}")
    root = as_seed_sequence(seed)
    model = SurrogateModel.shared(sim_config)
    ladder = default_probability_grid(resolution)

    started = obs_provenance.start_clock() if manifest_dir is not None else None
    tracer = obs_trace.get_tracer()
    emit = tracer.emit if tracer.enabled else None
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h_query = begin("optimize.query", "optimize") if begin is not None else None
    primary = query.objectives[0]

    def _evaluate(rungs: Sequence[int]) -> Sequence[Evaluation]:
        evs = model.evaluate(query, [float(ladder[r]) for r in rungs])
        if emit is not None:
            for rung, ev in zip(rungs, evs, strict=True):
                emit(
                    SearchStep(
                        "probe",
                        int(rung),
                        ev.p,
                        ev.feasible,
                        float(getattr(ev, primary)) if ev.feasible else float("nan"),
                    )
                )
        return evs

    h_search = begin("optimize.search", "optimize") if begin is not None else None
    recursions_before = model.probes
    outcome: SearchOutcome = search_frontier(
        _evaluate,
        ladder,
        query,
        root,
        restarts=restarts,
        neighborhood=neighborhood,
        max_steps=max_steps,
    )
    if h_search is not None:
        h_search.end(
            probes=outcome.probes,
            recursions=model.probes - recursions_before,
            restarts=outcome.restarts,
            frontier=len(outcome.frontier),
        )

    rung_of = {ev.p: rung for rung, ev in outcome.evaluations.items()}
    candidates: list[int] = []
    simulated: dict[int, Evaluation] = {}
    if verify:
        candidates = select_candidates(
            outcome, query, tolerance=tolerance, max_verify=max_verify
        )
        h_verify = begin("optimize.verify", "optimize") if begin is not None else None
        simulated = verify_candidates(
            sim_config,
            query,
            candidates,
            ladder,
            root,
            replications=replications,
            engine=engine,
            alignment=alignment,
            workers=workers,
            store=store,
            resume=resume,
            retries=retries,
            progress=progress,
        )
        if h_verify is not None:
            h_verify.end(
                candidates=len(candidates), replications=replications
            )
        if emit is not None:
            for rung in candidates:
                ev = simulated[rung]
                emit(
                    SearchStep(
                        "verify",
                        int(rung),
                        ev.p,
                        ev.feasible,
                        float(getattr(ev, primary)) if ev.feasible else float("nan"),
                    )
                )

    # The result frontier: Pareto over the authoritative evaluations —
    # simulation when verification ran, surrogate otherwise.
    points: list[FrontierPoint] = []
    if verify:
        verified_front = FrontierSet(query)
        for rung in candidates:
            verified_front.consider(simulated[rung])
        sim_rung = {id(simulated[r]): r for r in candidates}
        for ev in verified_front.points:
            rung = sim_rung[id(ev)]
            points.append(
                FrontierPoint(
                    rung=rung,
                    p=float(ladder[rung]),
                    surrogate=outcome.evaluations[rung],
                    simulated=ev,
                )
            )
    else:
        for ev in outcome.frontier:
            rung = rung_of[ev.p]
            points.append(
                FrontierPoint(rung=rung, p=ev.p, surrogate=ev, simulated=None)
            )

    best: FrontierPoint | None = None
    for pt in points:
        if best is None or better(pt.evaluation, best.evaluation, query):
            best = pt

    result = OptimizeResult(
        query=query,
        resolution=float(resolution),
        frontier=tuple(points),
        best=best,
        surrogate_frontier=outcome.frontier,
        candidates=tuple(candidates),
        surrogate_probes=outcome.probes,
        sim_tasks=len(candidates) * replications if verify else 0,
        seed_entropy=root.entropy,
    )
    if manifest_dir is not None:
        obs_provenance.write_manifest(
            manifest_dir,
            "optimize",
            config=sim_config,
            seed=root,
            params={
                "bounds": dict(query.bounds),
                "objectives": list(query.objectives),
                "resolution": float(resolution),
                "restarts": restarts,
                "neighborhood": neighborhood,
                "tolerance": tolerance,
                "verify": verify,
                "replications": replications,
                "max_verify": max_verify,
                "engine": engine,
                "alignment": alignment,
                "candidates_p": [float(ladder[r]) for r in candidates],
                "frontier_p": [pt.p for pt in points],
                "best_p": None if best is None else best.p,
                "surrogate_probes": outcome.probes,
                "sim_tasks": result.sim_tasks,
                "store": None if store is None else str(store),
            },
            started=started,
        )
    if h_query is not None:
        h_query.end(
            candidates=len(candidates), sim_tasks=result.sim_tasks
        )
    return result
