"""Shotgun + hillclimb frontier search over the probability ladder.

The quantifind pattern (SNIPPETS Snippet 3) adapted to one knob: probe
a spread of starting probabilities (deterministic quantile "shotgun"
inits plus optional random restarts), then hillclimb each start over a
fixed ladder of probabilities with doubling step offsets.  The
comparison driving every move is :func:`repro.optimize.spec.better`:
while the bounds are violated the climb improves the bound metric (the
reachability shortfall), once inside the feasible region it improves
the objectives lexicographically — and every tie breaks toward lower
``p``, so on a plateau the climb drifts left to the exact index a
dense-grid ``argmax``/``argmin`` would have picked.

Every evaluation ever probed feeds the :class:`FrontierSet`, so the
search returns both the frontier and the full probe log (which the
verification tier mines for near-optimal candidates).

The ladder is a *fixed* grid (:func:`default_probability_grid`:
``rung`` = index, ``p = (rung+1) * resolution``, never above 1): making
probe positions — and therefore the per-rung Monte-Carlo verification
seeds of :func:`candidate_seed` — a function of the rung alone is what
lets repeated or adjacent queries warm-start from the result store with
zero new simulator tasks.  The paper's dense sweeps (Sec. 4.2.3) walk
the same ladder: every rung, no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.optimize.frontier import FrontierSet
from repro.optimize.spec import Evaluation, OptimizeQuery, better
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.utils.validation import check_positive

__all__ = [
    "default_probability_grid",
    "SEED_NAMESPACE",
    "RESTART_NAMESPACE",
    "candidate_seed",
    "SearchOutcome",
    "search_frontier",
]

#: Spawn-key namespace for per-rung verification seeds (``0x6F70`` is
#: ASCII ``"op"``).  Keeps optimizer-spawned seed sequences disjoint
#: from ``root.spawn(n)`` children and from the restart stream.
SEED_NAMESPACE = 0x6F70

#: Spawn-key namespace for the random-restart stream.
RESTART_NAMESPACE = 0x6F71

#: Quantiles of the ladder probed as deterministic shotgun inits.
_INIT_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


def default_probability_grid(step: float = 0.01) -> np.ndarray:
    """The probability ladder ``step, 2*step, ...`` up to the last rung <= 1.

    The default is the paper's analysis grid, 0.01..1.00.  A step that
    does not divide 1 stops short of it (0.15 ends at 0.90), because
    every rung must be a probability.
    """
    step = check_positive("step", step)
    if step > 1.0:
        raise ConfigurationError(f"grid step cannot exceed 1, got {step}")
    n = math.floor(1.0 / step + 1e-9)
    return np.linspace(step, n * step, n)


def candidate_seed(seed: SeedLike, rung: int) -> np.random.SeedSequence:
    """The deterministic Monte-Carlo seed for one ladder rung.

    Built from the root's entropy with an explicit namespaced spawn key
    — *not* ``spawn()``, which mutates the parent — so the seed of rung
    ``r`` depends only on ``(seed, r)``: candidate lists of different
    searches over the same ladder address the same store entries.
    """
    root = as_seed_sequence(seed)
    if rung < 0:
        raise ConfigurationError(f"rung must be >= 0, got {rung}")
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=(*root.spawn_key, SEED_NAMESPACE, rung)
    )


@dataclass(frozen=True)
class SearchOutcome:
    """Everything a search learned.

    Attributes
    ----------
    frontier:
        The surrogate Pareto frontier, ordered by increasing ``p``.
    evaluations:
        Every probe, ladder rung to evaluation.
    probes:
        Number of distinct rungs evaluated.
    restarts:
        Random restarts performed.
    steps:
        Hillclimb moves taken across all starts.
    """

    frontier: tuple[Evaluation, ...]
    evaluations: dict[int, Evaluation]
    probes: int
    restarts: int
    steps: int


# The evaluator contract: rung indices in, evaluations out (same order).
Evaluator = Callable[[Sequence[int]], Sequence[Evaluation]]


def _climb(
    evaluate: Evaluator,
    seen: dict[int, Evaluation],
    query: OptimizeQuery,
    start: int,
    n: int,
    neighborhood: int,
    max_steps: int,
) -> int:
    """Hillclimb from one rung; returns moves taken.

    Neighbors are probed at doubling offsets (±1, ±2, ... ±2^(k-1));
    the climb moves to the best strictly-better neighbor under
    :func:`better` (whose tie-break prefers lower ``p``, so exact
    plateaus drain leftward in up-to-max-offset jumps) and stops at a
    local optimum.
    """
    _probe(evaluate, seen, [start])
    current = start
    steps = 0
    for _ in range(max_steps):
        offsets = [1 << k for k in range(neighborhood)]
        cand = sorted(
            {
                r
                for off in offsets
                for r in (current - off, current + off)
                if 0 <= r < n
            }
        )
        _probe(evaluate, seen, cand)
        best = current
        for r in cand:
            if better(seen[r], seen[best], query):
                best = r
        if best == current:
            break
        current = best
        steps += 1
    return steps


def _probe(
    evaluate: Evaluator, seen: dict[int, Evaluation], rungs: Sequence[int]
) -> None:
    fresh = [r for r in rungs if r not in seen]
    if not fresh:
        return
    for r, ev in zip(fresh, evaluate(fresh), strict=True):
        seen[r] = ev


def search_frontier(
    evaluate: Evaluator,
    ladder: Sequence[float] | np.ndarray,
    query: OptimizeQuery,
    seed: SeedLike = None,
    *,
    restarts: int = 4,
    neighborhood: int = 6,
    max_steps: int = 64,
) -> SearchOutcome:
    """Run the shotgun + hillclimb search over a probability ladder.

    Parameters
    ----------
    evaluate:
        Batch evaluator: ladder rung indices in, evaluations out.  The
        library passes a telemetry-wrapped
        :meth:`~repro.optimize.surrogate.SurrogateModel.evaluate`.
    ladder:
        The probability grid being searched (only its length matters
        here; rungs index into it).
    query:
        Bounds and objectives.
    seed:
        Entropy for the random restarts; deterministic inits and climbs
        are unaffected.  With ``restarts=0`` the search is fully
        deterministic and the seed is never consumed.
    restarts:
        Random restart count (uniform rungs from a namespaced child of
        ``seed``).
    neighborhood:
        Doubling-offset levels per climb step (6 probes offsets up to
        ±32 rungs).
    max_steps:
        Hillclimb move cap per start.
    """
    n = len(ladder)
    if n == 0:
        raise ConfigurationError("ladder must be non-empty")
    if restarts < 0:
        raise ConfigurationError(f"restarts must be >= 0, got {restarts}")
    if neighborhood < 1:
        raise ConfigurationError(f"neighborhood must be >= 1, got {neighborhood}")

    starts = sorted({int(round(f * (n - 1))) for f in _INIT_QUANTILES})
    if restarts:
        root = as_seed_sequence(seed)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=(*root.spawn_key, RESTART_NAMESPACE),
            )
        )
        starts += [int(r) for r in rng.integers(0, n, size=restarts)]

    seen: dict[int, Evaluation] = {}
    steps = 0
    for start in starts:
        steps += _climb(evaluate, seen, query, start, n, neighborhood, max_steps)

    frontier = FrontierSet(query)
    for rung in sorted(seen):
        frontier.consider(seen[rung])
    return SearchOutcome(
        frontier=frontier.points,
        evaluations=seen,
        probes=len(seen),
        restarts=restarts,
        steps=steps,
    )
