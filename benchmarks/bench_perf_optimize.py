"""Adaptive frontier search vs brute-force dense (rho, p) grid.

The optimizer's reason to exist: answering "best p for this deployment"
must not cost a dense probability grid of Monte-Carlo sweeps.  Both
paths here answer the same query — maximize reachability within the
paper's 5-phase latency budget at rho=140 — on the same 0.05 ladder
with common random numbers (the per-rung :func:`candidate_seed`
streams), so their per-rung simulation results are bit-identical and
the comparison is purely about how many rungs each pays to simulate:

* dense grid: every rung, ``20 * REPLICATIONS`` simulator runs;
* frontier search: analytic surrogate probes the ladder, the simulator
  verifies at most ``MAX_VERIFY`` candidates — >= 10x fewer runs for
  the same optimal p within one ladder step (asserted below, not just
  timed; everything is seeded, so the answers are machine-independent).

Timings land in ``BENCH_perf.json`` via ``--perf-json``; the CI guard
(``check_perf.py``) pins the search median to the dense-grid median of
the same run via a ``baseline:`` alias.  That search clears the
process's shared surrogate memo before every round, so it times a first
query at the density; ``test_frontier_search_warm_pb_rho140`` times the
same query with the memo filled (recorded, not gated).
"""

from repro.analysis.config import AnalysisConfig
from repro.analysis.optimizer import default_probability_grid
from repro.optimize import (
    OptimizeQuery,
    better,
    candidate_seed,
    evaluate_runs,
    optimize,
)
from repro.optimize.surrogate import _shared_model
from repro.sim.config import SimulationConfig
from repro.sim.runner import sweep_grid
from repro.utils.rng import as_seed_sequence

CFG = SimulationConfig(analysis=AnalysisConfig(rho=140))
RESOLUTION = 0.05
LADDER = default_probability_grid(RESOLUTION)
REPLICATIONS = 6
MAX_VERIFY = 2
SEED = 20050113
BOUNDS = {"latency": 5.0}
OBJECTIVES = ("reachability",)

_DENSE_MEMO: dict[str, float] = {}


def _dense_best_p() -> float:
    """Brute force: simulate every rung, pick the best aggregate.

    In-process (``workers=1``), like the search it is compared with.
    """
    root = as_seed_sequence(SEED)
    grid = sweep_grid(
        CFG,
        [CFG.rho],
        list(LADDER),
        REPLICATIONS,
        seed=root,
        point_seed=lambda _rho, i: candidate_seed(root, i),
        workers=1,
    )
    query = OptimizeQuery(bounds=BOUNDS, objectives=OBJECTIVES)
    best = None
    for p in LADDER:
        ev = evaluate_runs(grid[(CFG.rho, float(p))], query, float(p))
        if ev.feasible and (best is None or better(ev, best, query)):
            best = ev
    assert best is not None
    _DENSE_MEMO["p"] = best.p
    return best.p


def _search():
    return optimize(
        CFG,
        bounds=BOUNDS,
        objectives=OBJECTIVES,
        seed=SEED,
        resolution=RESOLUTION,
        replications=REPLICATIONS,
        max_verify=MAX_VERIFY,
    )


def test_dense_grid_pb_rho140(benchmark):
    p = benchmark.pedantic(_dense_best_p, rounds=3, iterations=1)
    assert 0.0 < p <= 1.0


def test_frontier_search_pb_rho140(benchmark):
    result = benchmark.pedantic(
        _search, setup=_shared_model.cache_clear, rounds=3, iterations=1
    )
    assert result.best is not None

    # Same answer: the verified optimum within one ladder step of the
    # dense grid's (common random numbers make per-rung results equal).
    dense_p = _DENSE_MEMO.get("p")
    if dense_p is None:  # ran standalone, pay for the reference once
        dense_p = _dense_best_p()
    assert abs(result.best.p - dense_p) <= RESOLUTION + 1e-9

    # The point of the exercise: an order of magnitude fewer MC runs.
    dense_tasks = LADDER.size * REPLICATIONS
    assert result.sim_tasks * 10 <= dense_tasks, (
        f"frontier search paid {result.sim_tasks} simulator runs; "
        f"dense grid pays {dense_tasks}"
    )


def test_frontier_search_warm_pb_rho140(benchmark):
    first = _search()  # fills the shared surrogate memo at rho=140
    result = benchmark.pedantic(_search, rounds=3, iterations=1)
    assert result.to_dict() == first.to_dict()
