"""Pareto-frontier adaptive search for the best broadcast probability.

Answers "what ``p`` should my deployment use under these constraints?"
with orders of magnitude fewer Monte-Carlo runs than the dense
``(rho, p)`` grids of :mod:`repro.experiments`:

* :mod:`repro.optimize.spec` — the query model: reachability/latency/
  energy as hard bounds or lexicographic objectives, and the shared
  stopping rule that evaluates a trace or simulated run against one.
* :mod:`repro.optimize.frontier` — :class:`FrontierSet` dominance
  pruning over feasible evaluations.
* :mod:`repro.optimize.search` — shotgun + hillclimb over a fixed
  probability ladder, driven by bound-violation-first comparison.
* :mod:`repro.optimize.surrogate` — the cheap tier: batched
  ring-recursion traces answering every probe analytically, memoized
  once per density and process.
* :mod:`repro.optimize.verify` — the expensive tier: Monte-Carlo
  verification of the shortlisted candidates through the store-backed
  scheduler, warm-starting from previous searches.
* :mod:`repro.optimize.api` / :mod:`repro.optimize.cli` — the
  :func:`optimize` library call and the ``repro-optimize`` console
  script.
"""

from repro.optimize.api import FrontierPoint, OptimizeResult, optimize
from repro.optimize.frontier import FrontierSet, dominates
from repro.optimize.search import (
    SearchOutcome,
    candidate_seed,
    search_frontier,
)
from repro.optimize.spec import (
    METRIC_NAMES,
    Evaluation,
    OptimizeQuery,
    better,
    evaluate_run,
    evaluate_runs,
    evaluate_trace,
)
from repro.optimize.surrogate import SurrogateModel
from repro.optimize.verify import (
    frontier_gap,
    select_candidates,
    verify_candidates,
)

__all__ = [
    "METRIC_NAMES",
    "OptimizeQuery",
    "Evaluation",
    "better",
    "evaluate_trace",
    "evaluate_run",
    "evaluate_runs",
    "FrontierSet",
    "dominates",
    "SearchOutcome",
    "candidate_seed",
    "search_frontier",
    "SurrogateModel",
    "frontier_gap",
    "select_candidates",
    "verify_candidates",
    "FrontierPoint",
    "OptimizeResult",
    "optimize",
]
