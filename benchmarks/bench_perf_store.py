"""Result-store performance: cold sweeps vs warm-cache replays.

The acceptance bar for :mod:`repro.store` is that a warm-cache
``sweep_grid`` over a 200-task grid (2 densities x 5 probabilities x 20
replications) returns bit-identical results at >=10x lower wall time
than the cold run that populated it — the cold/warm medians land in
``BENCH_perf.json`` via ``--perf-json`` so the ratio is on record.
The micro benchmarks price the store's moving parts (keying, packing,
a put/get round trip) so regressions are attributable.
"""

import shutil

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate, sweep_grid
from repro.store import DiskStore, pack_result, task_key, unpack_result

CFG = SimulationConfig(analysis=AnalysisConfig(n_rings=4, rho=40))
RHOS = (30, 40)
PS = (0.1, 0.3, 0.5, 0.7, 0.9)
REPLICATIONS = 20  # 2 x 5 x 20 = 200 tasks
SEED = 20050113


def _sweep(store):
    return sweep_grid(
        CFG, RHOS, PS, REPLICATIONS, seed=SEED, workers=1, store=store
    )


def test_store_cold_sweep_200(benchmark, tmp_path):
    """Compute + persist all 200 tasks into an empty store."""
    root = tmp_path / "store"

    def fresh():
        shutil.rmtree(root, ignore_errors=True)
        return (), {}

    grid = benchmark.pedantic(lambda: _sweep(root), setup=fresh, rounds=3)
    assert len(grid) == len(RHOS) * len(PS)


def test_store_warm_sweep_200(benchmark, tmp_path):
    """Serve all 200 tasks from a warm store; verify bit-identity."""
    root = tmp_path / "store"
    cold = _sweep(root)
    warm = benchmark(lambda: _sweep(root))
    for key, runs in cold.items():
        for x, y in zip(runs, warm[key], strict=True):
            np.testing.assert_array_equal(
                x.new_informed_by_slot, y.new_informed_by_slot
            )
            np.testing.assert_array_equal(
                x.broadcasts_by_slot, y.broadcasts_by_slot
            )
            np.testing.assert_array_equal(x.informed_mask, y.informed_mask)
            assert x.informed_mask.dtype == y.informed_mask.dtype
            assert x.collisions == y.collisions


@pytest.fixture(scope="module")
def one_run():
    return replicate(ProbabilisticRelay(0.3), CFG, 1, seed=SEED)


def test_store_task_key(benchmark):
    key = benchmark(
        lambda: task_key(ProbabilisticRelay(0.3), CFG, SEED, "vector", "phase")
    )
    assert len(key) == 64


def test_store_pack_unpack_round_trip(benchmark, one_run):
    out = benchmark(lambda: unpack_result(pack_result(one_run[0])))
    assert out.n_field_nodes == one_run[0].n_field_nodes


def test_store_put_get_round_trip(benchmark, tmp_path, one_run):
    store = DiskStore(tmp_path / "store")
    key = task_key(ProbabilisticRelay(0.3), CFG, SEED, "vector", "phase")

    def round_trip():
        store.put(key, one_run)
        return store.get(key)

    got = benchmark(round_trip)
    assert len(got) == 1
