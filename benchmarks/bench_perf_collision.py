"""Microbenchmarks of the collision-probability kernels.

These are true pytest-benchmark timings (multiple rounds): the mu table
build is the setup cost of every ring model, and the vectorized mu
lookup sits in the innermost loop of the recursion (once per quadrature
node per ring per phase).
"""

import numpy as np
import pytest

from repro.collision.carrier import no_good_slot_table
from repro.collision.slots import SlotCollisionTable, no_singleton_table
from repro.collision.poisson import mu_poisson
from repro.models.cam import CollisionAwareChannel
from repro.network.deployment import DiskDeployment


def test_mu_table_build_256(benchmark):
    result = benchmark(lambda: no_singleton_table(256, 3))
    assert len(result) == 257


def test_mu_table_build_1024(benchmark):
    result = benchmark(lambda: no_singleton_table(1024, 3))
    assert len(result) == 1025


def test_mu_real_vector_lookup(benchmark):
    table = SlotCollisionTable(initial_kmax=256)
    lam = np.linspace(0.0, 150.0, 96)
    table.mu_real(lam, 3)  # warm the cache

    out = benchmark(lambda: table.mu_real(lam, 3))
    assert out.shape == (96,)


def test_mu_poisson_closed_form(benchmark):
    lam = np.linspace(0.0, 150.0, 96)
    out = benchmark(lambda: mu_poisson(lam, 3))
    assert out.shape == (96,)


def test_carrier_table_build_48x48(benchmark):
    result = benchmark.pedantic(
        lambda: no_good_slot_table(48, 48, 3), rounds=3, iterations=1
    )
    assert result.shape == (49, 49)


# ----------------------------------------------------------------------
# CAM slot resolution (the simulation engine's inner loop)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dense_flood():
    """A rho=140 deployment with every node transmitting — the CAM
    channel's worst case and the engine's hottest slot shape."""
    rng = np.random.default_rng(20050404)
    deployment = DiskDeployment.sample(rho=140.0, n_rings=5, rng=rng)
    topo = deployment.topology()
    channel = CollisionAwareChannel(topo)
    tx = np.arange(topo.n_nodes, dtype=np.intp)
    return channel, tx


def test_cam_flooding_resolve_rho140(benchmark, dense_flood):
    channel, tx = dense_flood
    delivery = benchmark(lambda: channel.resolve_slot(tx))
    assert delivery.receivers.size + delivery.collided.size > 0


def test_cam_flooding_resolve_rho140_reference(benchmark, dense_flood):
    """The per-transmitter loop kernel, kept as the comparison baseline."""
    channel, tx = dense_flood
    counts, _ = benchmark.pedantic(
        lambda: channel._counts_and_senders_reference(tx),
        rounds=3,
        iterations=1,
    )
    assert counts.max() >= 1


def test_cam_sparse_resolve_rho140(benchmark, dense_flood):
    """~10% of nodes transmitting: the gather's non-contiguous path."""
    channel, tx = dense_flood
    rng = np.random.default_rng(7)
    sparse = np.sort(rng.choice(tx.size, size=tx.size // 10, replace=False))
    delivery = benchmark(lambda: channel.resolve_slot(sparse))
    assert delivery.receivers.size + delivery.collided.size > 0
