"""Vectorized CAM slot kernel vs the loop-based reference.

`CollisionAwareChannel._counts_and_senders` takes every transmitter's
neighbor pairs from its graph at once (one CSR gather here) and
accumulates with bincount; `_counts_and_senders_reference` is the
per-transmitter loop it replaced.  These tests pin the two to *exact*
equality on randomized topologies and transmitter sets, including the
degenerate shapes the gather has to get right (empty slices, contiguous
flooding, unsorted input), and check the full `resolve_slot` Delivery
through both CSR graphs.
"""

import numpy as np
import pytest

from repro.models.cam import CollisionAwareChannel
from repro.network.deployment import DiskDeployment
from repro.network.topology import Topology


def random_topology(rng, n, radius=0.35, carrier=None):
    positions = rng.uniform(0.0, 1.0, size=(n, 2))
    return Topology(positions, radius, carrier_radius=carrier)


def assert_kernels_agree(channel, tx, *, carrier=False):
    fast = channel._counts_and_senders(tx, carrier=carrier)
    slow = channel._counts_and_senders_reference(tx, carrier=carrier)
    np.testing.assert_array_equal(fast[0], slow[0])
    np.testing.assert_array_equal(fast[1], slow[1])
    assert fast[0].dtype == slow[0].dtype
    assert fast[1].dtype == slow[1].dtype


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_transmitter_sets(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng, int(rng.integers(2, 80)))
        channel = CollisionAwareChannel(topo)
        for _ in range(6):
            k = int(rng.integers(0, topo.n_nodes + 1))
            tx = rng.choice(topo.n_nodes, size=k, replace=False)
            assert_kernels_agree(channel, np.sort(tx))

    def test_flooding_contiguous_fast_path(self, rng):
        """All nodes transmitting: slices are back-to-back in the CSR."""
        topo = random_topology(rng, 60)
        channel = CollisionAwareChannel(topo)
        tx = np.arange(topo.n_nodes, dtype=np.intp)
        assert_kernels_agree(channel, tx)

    def test_empty_transmitter_set(self, rng):
        topo = random_topology(rng, 20)
        channel = CollisionAwareChannel(topo)
        tx = np.zeros(0, dtype=np.intp)
        assert_kernels_agree(channel, tx)

    def test_zero_degree_transmitters(self, rng):
        """Isolated nodes have empty CSR slices the gather must skip."""
        positions = np.vstack(
            [rng.uniform(0.0, 0.2, size=(8, 2)), [[5.0, 5.0]], [[9.0, 9.0]]]
        )
        topo = Topology(positions, 0.5)
        channel = CollisionAwareChannel(topo)
        # Mix isolated and connected transmitters, isolated first and last.
        for tx in ([8], [8, 9], [0, 8, 9], [8, 0, 1, 9], list(range(10))):
            assert_kernels_agree(channel, np.asarray(tx, dtype=np.intp))

    def test_carrier_csr_branch(self, rng):
        topo = random_topology(rng, 50, radius=0.25, carrier=0.5)
        channel = CollisionAwareChannel(topo, carrier_sense=True)
        for _ in range(5):
            k = int(rng.integers(1, 25))
            tx = np.sort(rng.choice(topo.n_nodes, size=k, replace=False))
            assert_kernels_agree(channel, tx, carrier=True)


class TestResolveSlotDelivery:
    @pytest.mark.parametrize("carrier_sense", [False, True])
    def test_delivery_matches_reference_kernel(self, rng, carrier_sense):
        deployment = DiskDeployment.sample(rho=25.0, n_rings=3, rng=rng)
        topo = deployment.topology(
            carrier_radius=2.0 * deployment.radius if carrier_sense else None
        )
        channel = CollisionAwareChannel(topo, carrier_sense=carrier_sense)
        reference = CollisionAwareChannel(topo, carrier_sense=carrier_sense)
        reference._counts_and_senders = reference._counts_and_senders_reference
        for _ in range(5):
            k = int(rng.integers(0, topo.n_nodes // 2))
            tx = rng.choice(topo.n_nodes, size=k, replace=False)
            fast = channel.resolve_slot(tx)
            slow = reference.resolve_slot(tx)
            np.testing.assert_array_equal(fast.receivers, slow.receivers)
            np.testing.assert_array_equal(fast.senders, slow.senders)
            np.testing.assert_array_equal(fast.collided, slow.collided)
