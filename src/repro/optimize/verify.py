"""The expensive tier: Monte-Carlo verification of shortlisted rungs.

The surrogate frontier is an analytical claim; this module checks it
against the simulator for a *tolerance band* of candidates — the
frontier rungs themselves plus any probed point whose objectives sit
within a relative tolerance of the frontier — capped at ``max_verify``
points.  Candidates dispatch as one
:func:`~repro.sim.runner.sweep_grid` call, which runs replication
blocks through the :mod:`repro.store` scheduler, reading and filling
the store when one is given: each rung's seed comes from :func:`~repro.optimize.search.candidate_seed`
(a pure function of the root seed and the rung), so a repeated or
adjacent query finds its tasks already in the store and performs zero
new simulator runs — pinned by test via the ``store.lookup`` span's
``hits``/``misses`` counters.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.optimize.search import SearchOutcome, candidate_seed
from repro.optimize.spec import (
    Evaluation,
    OptimizeQuery,
    evaluate_runs,
    objective_key,
)
from repro.sim.config import SimulationConfig
from repro.sim.runner import PathLike, StoreLike, sweep_grid
from repro.utils.rng import SeedLike, as_seed_sequence

__all__ = ["select_candidates", "verify_candidates", "frontier_gap"]

#: Guard against zero denominators in relative-gap computation.
_GAP_EPS = 1e-9


def frontier_gap(
    ev: Evaluation, frontier: Sequence[Evaluation], query: OptimizeQuery
) -> float:
    """Relative distance of one evaluation behind the frontier.

    For each frontier point: the worst per-objective relative shortfall
    (minimize-normalized); the gap is the minimum over frontier points.
    0 means the point matches some frontier point; ``tolerance`` bounds
    how far behind a candidate may sit and still be worth simulating.
    """
    if not frontier:
        return math.inf
    ke = objective_key(ev, query)
    gap = math.inf
    for f in frontier:
        kf = objective_key(f, query)
        worst = 0.0
        for e_val, f_val in zip(ke, kf, strict=True):
            denom = max(abs(f_val), _GAP_EPS)
            worst = max(worst, (e_val - f_val) / denom)
        gap = min(gap, worst)
    return gap


def select_candidates(
    outcome: SearchOutcome,
    query: OptimizeQuery,
    *,
    tolerance: float,
    max_verify: int,
) -> list[int]:
    """The rungs worth paying the simulator for, ordered by rung.

    Frontier rungs come first; remaining slots go to feasible probes
    within ``tolerance`` of the frontier, closest first.
    """
    frontier_rungs = sorted(
        rung
        for rung, ev in outcome.evaluations.items()
        if ev in outcome.frontier
    )
    chosen = frontier_rungs[:max_verify]
    if len(chosen) < max_verify:
        near: list[tuple[float, int]] = []
        for rung, ev in outcome.evaluations.items():
            if rung in chosen or not ev.feasible:
                continue
            gap = frontier_gap(ev, outcome.frontier, query)
            if gap <= tolerance:
                near.append((gap, rung))
        for _, rung in sorted(near)[: max_verify - len(chosen)]:
            chosen.append(rung)
    return sorted(chosen)


def verify_candidates(
    config: SimulationConfig,
    query: OptimizeQuery,
    rungs: Sequence[int],
    ladder: Sequence[float],
    seed: SeedLike,
    *,
    replications: int,
    engine: str = "vector",
    alignment: str = "phase",
    workers: int | None = 1,
    store: StoreLike = None,
    resume: bool = False,
    retries: int = 1,
    progress: bool = False,
    manifest_dir: PathLike = None,
) -> dict[int, Evaluation]:
    """Simulate the shortlisted rungs; one sweep, per-rung stable seeds.

    Returns rung to aggregated simulation :class:`Evaluation`.  The
    per-point seed is :func:`~repro.optimize.search.candidate_seed`
    — a function of ``(seed, rung)``, never of the candidate list — so
    store entries are shared across searches.
    """
    if not rungs:
        return {}
    # Resolve the root once: a None seed draws OS entropy exactly one
    # time, keeping every rung's child derived from the same root.
    root = as_seed_sequence(seed)
    ps = [float(ladder[r]) for r in rungs]
    rung_list = list(rungs)
    grid = sweep_grid(
        config,
        [config.rho],
        ps,
        replications,
        seed=root,
        point_seed=lambda _rho, i: candidate_seed(root, rung_list[i]),
        engine=engine,
        alignment=alignment,
        workers=workers,
        store=store,
        resume=resume,
        retries=retries,
        progress=progress,
        manifest_dir=manifest_dir,
    )
    rho = float(config.rho)
    return {
        rung: evaluate_runs(grid[(rho, p)], query, p)
        for rung, p in zip(rung_list, ps, strict=True)
    }
