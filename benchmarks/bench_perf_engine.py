"""One 32-replication block vs 32 blocks of one.

The engine has one slot loop; :func:`~repro.sim.engine.run_broadcast`
is a block of one.  A 32-replication block pays for one band index
and one query-plus-resolution pass per slot instead of 32,
so the ``per_run`` cases here time 32 sequential blocks of one and the
``batched`` cases one block of 32.  Timings land in ``BENCH_perf.json``
via ``--perf-json``; the ``baseline:`` aliases there keep each block of
32 within the tolerance of its 32 blocks of one.  A single block of one
is also timed as ``bench_perf_obs.py::test_tracing_disabled_flooding_rho140``.
"""

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay, SimpleFlooding
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast, run_broadcast_batch

CFG_MID = SimulationConfig(analysis=AnalysisConfig(rho=60))
CFG_DENSE = SimulationConfig(analysis=AnalysisConfig(rho=140))
BLOCK = 32


def _seeds():
    return np.random.SeedSequence(0).spawn(BLOCK)


def test_batched_flooding_rho140_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: run_broadcast_batch(SimpleFlooding(), CFG_DENSE, seeds),
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].collisions > 0


def test_per_run_flooding_rho140_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: [run_broadcast(SimpleFlooding(), CFG_DENSE, s) for s in seeds],
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].collisions > 0


def test_batched_pb_rho60_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: run_broadcast_batch(ProbabilisticRelay(0.2), CFG_MID, seeds),
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].reachability > 0.5


def test_per_run_pb_rho60_block32(benchmark):
    seeds = _seeds()
    results = benchmark.pedantic(
        lambda: [run_broadcast(ProbabilisticRelay(0.2), CFG_MID, s) for s in seeds],
        rounds=3,
        iterations=1,
    )
    assert len(results) == BLOCK
    assert results[0].reachability > 0.5
