"""Shotgun + hillclimb search: dense-grid parity, determinism, seeds.

The central claim: on a ladder the climb's doubling offsets can cover,
the search returns the exact optimum a dense sweep would have picked —
including the lowest-``p`` convention on plateaus — while probing fewer
rungs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.optimizer import default_probability_grid
from repro.errors import ConfigurationError
from repro.optimize import (
    Evaluation,
    OptimizeQuery,
    SurrogateModel,
    candidate_seed,
    search_frontier,
)
from repro.optimize.search import RESTART_NAMESPACE, SEED_NAMESPACE
from repro.optimize.spec import best_evaluation

LADDER = default_probability_grid(0.05)

QUERIES = {
    "reach_at_latency": OptimizeQuery(
        bounds={"latency": 5.0}, objectives=("reachability",)
    ),
    "latency_at_reach": OptimizeQuery(
        bounds={"reachability": 0.72}, objectives=("latency",)
    ),
    "energy_at_reach": OptimizeQuery(
        bounds={"reachability": 0.72}, objectives=("energy",)
    ),
    "reach_at_energy": OptimizeQuery(
        bounds={"energy": 35.0}, objectives=("reachability",)
    ),
}


class TestCandidateSeed:
    def test_pure_function_of_seed_and_rung(self):
        a = candidate_seed(1234, 7)
        b = candidate_seed(1234, 7)
        assert a.entropy == b.entropy
        assert a.spawn_key == b.spawn_key

    def test_namespaced_spawn_key(self):
        root = np.random.SeedSequence(1234)
        child = candidate_seed(root, 3)
        assert child.entropy == root.entropy
        assert child.spawn_key == (*root.spawn_key, SEED_NAMESPACE, 3)
        assert SEED_NAMESPACE != RESTART_NAMESPACE

    def test_distinct_rungs_distinct_streams(self):
        states = {
            tuple(candidate_seed(42, r).generate_state(4)) for r in range(16)
        }
        assert len(states) == 16

    def test_parent_not_mutated(self):
        root = np.random.SeedSequence(1234)
        before = root.n_children_spawned
        candidate_seed(root, 0)
        assert root.n_children_spawned == before

    def test_negative_rung_rejected(self):
        with pytest.raises(ConfigurationError, match="rung"):
            candidate_seed(42, -1)


def _surrogate_evaluator(query, rho=60.0):
    model = SurrogateModel(AnalysisConfig(rho=rho))
    return model, (
        lambda rungs: model.evaluate(query, [float(LADDER[r]) for r in rungs])
    )


class TestDenseParity:
    """With offsets covering the ladder, search == dense argmax/argmin."""

    @pytest.mark.parametrize("rho", [20.0, 60.0, 140.0])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_best_matches_dense_sweep(self, name, rho):
        query = QUERIES[name]
        model, evaluate = _surrogate_evaluator(query, rho)
        outcome = search_frontier(evaluate, LADDER, query, restarts=0)

        dense = model.evaluate(query, [float(p) for p in LADDER])
        want = best_evaluation(dense, query)

        got = best_evaluation(outcome.frontier, query)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.p == want.p
            assert got == want

    def test_probes_at_most_ladder(self):
        query = QUERIES["reach_at_latency"]
        _, evaluate = _surrogate_evaluator(query)
        outcome = search_frontier(evaluate, LADDER, query, restarts=0)
        assert outcome.probes <= LADDER.size
        assert set(outcome.evaluations) <= set(range(LADDER.size))


class TestDeterminism:
    def test_fixed_seed_reproduces_everything(self):
        query = QUERIES["latency_at_reach"]
        runs = []
        for _ in range(2):
            _, evaluate = _surrogate_evaluator(query)
            runs.append(search_frontier(evaluate, LADDER, query, 987, restarts=3))
        a, b = runs
        assert a.frontier == b.frontier
        assert a.evaluations == b.evaluations
        assert (a.probes, a.restarts, a.steps) == (b.probes, b.restarts, b.steps)

    def test_zero_restarts_ignores_seed(self):
        query = QUERIES["reach_at_energy"]
        _, ev1 = _surrogate_evaluator(query)
        _, ev2 = _surrogate_evaluator(query)
        a = search_frontier(ev1, LADDER, query, 1, restarts=0)
        b = search_frontier(ev2, LADDER, query, 2, restarts=0)
        assert a.frontier == b.frontier


class TestPlateau:
    def test_flat_landscape_drains_to_lowest_p(self):
        """Every rung identical: the tie-break must land on rung 0."""
        query = OptimizeQuery(objectives=("latency",))

        def evaluate(rungs):
            return [
                Evaluation(
                    p=float(LADDER[r]),
                    reachability=0.9,
                    latency=4.0,
                    energy=20.0,
                    feasible=True,
                )
                for r in rungs
            ]

        outcome = search_frontier(evaluate, LADDER, query, restarts=0)
        assert len(outcome.frontier) == 1
        assert outcome.frontier[0].p == float(LADDER[0])

    def test_all_infeasible_empty_frontier(self):
        query = OptimizeQuery(
            bounds={"reachability": 0.99}, objectives=("latency",)
        )

        def evaluate(rungs):
            return [
                Evaluation(
                    p=float(LADDER[r]),
                    reachability=0.1,
                    latency=4.0,
                    energy=20.0,
                    feasible=False,
                    violation=0.89,
                )
                for r in rungs
            ]

        outcome = search_frontier(evaluate, LADDER, query, restarts=0)
        assert outcome.frontier == ()
        assert outcome.probes > 0


class TestValidation:
    def test_empty_ladder(self):
        query = OptimizeQuery(objectives=("latency",))
        with pytest.raises(ConfigurationError, match="ladder"):
            search_frontier(lambda r: [], [], query)

    def test_negative_restarts(self):
        query = OptimizeQuery(objectives=("latency",))
        with pytest.raises(ConfigurationError, match="restarts"):
            search_frontier(lambda r: [], LADDER, query, restarts=-1)

    def test_bad_neighborhood(self):
        query = OptimizeQuery(objectives=("latency",))
        with pytest.raises(ConfigurationError, match="neighborhood"):
            search_frontier(lambda r: [], LADDER, query, neighborhood=0)
