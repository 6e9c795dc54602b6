"""Serving-tier performance: warm query latency and the memory tier.

The serving claims live in two places.  The end-to-end numbers —
cold-pass coalescing ratio and warm-pass p50 over the 200-task
acceptance workload — come from ``repro-serve --bench`` (run in CI
before the perf gate), which merges ``serve.bench.*`` keys that
``check_perf.py`` bounds with a hard warm-latency limit and a hard
coalescing floor.  The micro benchmarks here price the tier's moving
parts so a regression in either headline number is attributable: a
single warm query through the full asyncio stack, a memory-tier read,
and a warm read through the read-through store.  The bare store's
put/get round trip is ``bench_perf_store.py``'s.
"""

import asyncio

import pytest

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.serve import MemoryTier, QueryService, ReadThroughStore
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.store import DiskStore, task_key

SEED = 20050113
QUERY = {
    "kind": "bound",
    "rho": 30.0,
    "p": 0.5,
    "seed": SEED,
    "replications": 10,
    "bounds": {"latency": 8.0},
    "n_rings": 4,
}


def test_serve_warm_query(benchmark, tmp_path):
    """One warm query end to end: parse, plan, memory hits, evaluate."""
    service = QueryService(tmp_path / "store")

    async def _one():
        return await service.query(QUERY)

    async def _close():
        await service.close()

    cold = asyncio.run(_one())  # populate disk + memory tiers
    warm = benchmark(lambda: asyncio.run(_one()))
    assert warm == cold
    asyncio.run(_close())


@pytest.fixture(scope="module")
def one_run():
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=4, rho=30))
    return replicate(ProbabilisticRelay(0.5), cfg, 1, seed=SEED)


def _key(i: int = 0) -> str:
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=4, rho=30))
    return task_key(ProbabilisticRelay(0.5), cfg, SEED + i, "vector", "phase")


def test_serve_memory_tier_get(benchmark, one_run):
    tier = MemoryTier(max_entries=1024)
    tier.put(_key(), list(one_run))
    got = benchmark(lambda: tier.get(_key()))
    assert got is not None


def test_serve_read_through_warm_get(benchmark, tmp_path, one_run):
    store = ReadThroughStore(DiskStore(tmp_path / "store"), max_entries=64)
    store.put(_key(), one_run)
    store.get(_key())
    got = benchmark(lambda: store.get(_key()))
    assert len(got) == 1
