"""Microbenchmarks of the analytical recursion.

One `run()` is the unit of work behind every grid point of Figs. 4-7;
a full probability sweep is one curve of a panel-(a) figure.
"""

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.optimizer import default_probability_grid
from repro.analysis.ring_model import RingModel
from repro.analysis.carrier_model import CarrierRingModel


def test_model_construction(benchmark):
    model = benchmark(lambda: RingModel(AnalysisConfig(rho=140)))
    assert model.config.rho == 140


def test_run_5_phases_sparse(benchmark):
    model = RingModel(AnalysisConfig(rho=20))
    trace = benchmark(lambda: model.run(0.6, max_phases=5))
    assert trace.phases <= 5


def test_run_5_phases_dense(benchmark):
    model = RingModel(AnalysisConfig(rho=140))
    trace = benchmark(lambda: model.run(0.1, max_phases=5))
    assert trace.phases <= 5


def test_run_to_quiescence_small_p(benchmark):
    model = RingModel(AnalysisConfig(rho=60))
    trace = benchmark(lambda: model.run(0.03, max_phases=200))
    assert trace.phases > 5  # the slow-wave regime


def test_probability_sweep_one_density(benchmark):
    """One curve of a panel-(a) figure, via the batched recursion."""
    model = RingModel(AnalysisConfig(rho=60))
    grid = np.arange(0.05, 1.001, 0.05)

    def sweep():
        return [
            t.reachability_after(5) for t in model.run_batch(grid, max_phases=5)
        ]

    vals = benchmark.pedantic(sweep, rounds=15, warmup_rounds=2, iterations=1)
    assert len(vals) == len(grid)


def test_probability_sweep_scalar_loop(benchmark):
    """The same sweep as 20 batches of one (``run()`` per probability):
    the comparison baseline for batching."""
    model = RingModel(AnalysisConfig(rho=60))
    grid = np.arange(0.05, 1.001, 0.05)

    def sweep():
        return [model.run(float(p), max_phases=5).reachability_after(5) for p in grid]

    vals = benchmark.pedantic(sweep, rounds=15, warmup_rounds=2, iterations=1)
    assert len(vals) == len(grid)


def test_quiescent_sweep_dense(benchmark):
    """Full-depth batched sweep at the paper's densest setting."""
    model = RingModel(AnalysisConfig(rho=140))
    grid = np.arange(0.05, 1.001, 0.05)

    traces = benchmark.pedantic(
        lambda: model.run_batch(grid, max_phases=200), rounds=3, iterations=1
    )
    assert len(traces) == len(grid)


def test_quiescent_sweep_1000(benchmark):
    """Full-depth sweep of the dense optimizer's default ladder (1000
    probabilities at resolution 0.001, rho=140): more lanes than one
    array step takes, so the recursion runs in lane blocks."""
    model = RingModel(AnalysisConfig(rho=140))
    grid = default_probability_grid(0.001)

    traces = benchmark.pedantic(
        lambda: model.run_batch(grid, max_phases=200), rounds=5, iterations=1
    )
    assert len(traces) == 1000


def test_carrier_model_run(benchmark):
    model = CarrierRingModel(AnalysisConfig(rho=60))
    trace = benchmark.pedantic(
        lambda: model.run(0.2, max_phases=5), rounds=3, iterations=1
    )
    assert trace.phases <= 5
