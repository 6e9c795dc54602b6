"""Channels over a block index against the per-replication reference.

A channel resolving one slot over a block's global id space must
produce exactly the concatenation (with offsets applied) of what the
same channel produces on each replication's own topology for the same
local transmitter sets — because the blocks are disjoint and the index
never pairs nodes of two replications, the single bincount pass cannot
mix them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.cam import CollisionAwareChannel, counts_and_senders
from repro.models.cfm import CollisionFreeChannel
from repro.network.deployment import DeploymentBatch
from repro.network.topology import BlockIndex, gather_neighbors

SEED = 20050113


@pytest.fixture(scope="module")
def batch():
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(4)]
    return DeploymentBatch.sample(rho=15.0, n_rings=3, rngs=rngs, population="poisson")


@pytest.fixture(scope="module")
def index(batch):
    return BlockIndex(batch.positions, batch.node_offsets, batch.radius)


def _random_tx(batch, rng):
    """Global transmitter ids, a random subset of each replication."""
    parts = []
    for r in range(batch.n_reps):
        lo, hi = int(batch.node_offsets[r]), int(batch.node_offsets[r + 1])
        n = hi - lo
        k = int(rng.integers(0, max(n // 3, 2)))
        parts.append(lo + rng.choice(n, size=min(k, n), replace=False))
    return np.sort(np.concatenate(parts).astype(np.int64))


def _reference_delivery(batch, make_channel, tx_global):
    """Per-replication channels, outputs re-offset into global ids."""
    recv, send, coll = [], [], []
    for r, dep in enumerate(batch.deployments):
        lo, hi = int(batch.node_offsets[r]), int(batch.node_offsets[r + 1])
        local_tx = tx_global[(tx_global >= lo) & (tx_global < hi)] - lo
        d = make_channel(dep.topology()).resolve_slot(local_tx)
        recv.append(d.receivers + lo)
        send.append(d.senders + lo)
        coll.append(d.collided + lo)
    return (
        np.concatenate(recv),
        np.concatenate(send),
        np.concatenate(coll),
    )


def assert_delivery_matches(got, ref):
    receivers, senders, collided = ref
    assert np.array_equal(got.receivers, receivers)
    assert np.array_equal(got.senders, senders)
    assert np.array_equal(got.collided, collided)


class TestBatchCollisionAware:
    """``CollisionAwareChannel`` over a block index."""

    @pytest.mark.parametrize("carrier_sense", [False, True], ids=["plain", "carrier"])
    def test_matches_per_replication(self, batch, index, carrier_sense):
        channel = CollisionAwareChannel(index, carrier_sense=carrier_sense)
        rng = np.random.default_rng(7)
        for _ in range(10):
            tx = _random_tx(batch, rng)
            ref = _reference_delivery(
                batch,
                lambda t: CollisionAwareChannel(t, carrier_sense=carrier_sense),
                tx,
            )
            assert_delivery_matches(channel.resolve_slot(tx), ref)

    def test_empty_slot(self, index):
        d = CollisionAwareChannel(index).resolve_slot(np.array([], dtype=np.int64))
        assert d.receivers.size == 0
        assert d.senders.size == 0
        assert d.collided.size == 0

    def test_sorted_outputs(self, batch, index):
        channel = CollisionAwareChannel(index)
        tx = _random_tx(batch, np.random.default_rng(3))
        d = channel.resolve_slot(tx)
        assert np.array_equal(d.receivers, np.sort(d.receivers))
        assert np.array_equal(d.collided, np.sort(d.collided))


class TestBatchCollisionFree:
    """``CollisionFreeChannel`` over a block index."""

    def test_matches_per_replication(self, batch, index):
        channel = CollisionFreeChannel(index)
        rng = np.random.default_rng(11)
        for _ in range(10):
            tx = _random_tx(batch, rng)
            ref = _reference_delivery(batch, CollisionFreeChannel, tx)
            assert_delivery_matches(channel.resolve_slot(tx), ref)

    def test_no_collisions_ever(self, batch, index):
        channel = CollisionFreeChannel(index)
        tx = _random_tx(batch, np.random.default_rng(13))
        assert channel.resolve_slot(tx).collided.size == 0

    def test_lowest_sender_wins(self, batch, index):
        """CFM tie-break is lowest transmitter id, also across the
        block's id space (each receiver's candidates stay in-block)."""
        channel = CollisionFreeChannel(index)
        lo = int(batch.node_offsets[1])
        topo = batch.deployments[1].topology()
        # Find a node with >= 2 neighbors and transmit from both.
        local = int(np.argmax(topo.degrees >= 2))
        node = lo + local
        nbrs = lo + topo.neighbors(local)[:2]
        d = channel.resolve_slot(np.sort(nbrs))
        sender = d.senders[d.receivers == node]
        assert sender.size == 1 and sender[0] == nbrs.min()


class TestKernels:
    def test_gather_neighbors_matches_loop(self, batch):
        topo = batch.deployments[0].topology()
        rng = np.random.default_rng(17)
        tx = np.sort(rng.choice(topo.n_nodes, size=40, replace=False)).astype(np.int64)
        receivers, senders = gather_neighbors(tx, topo.indptr, topo.indices)
        ref_r, ref_s = [], []
        for t in tx:
            nbrs = topo.indices[topo.indptr[t] : topo.indptr[t + 1]]
            ref_r.extend(int(v) for v in nbrs)
            ref_s.extend([int(t)] * len(nbrs))
        assert np.array_equal(receivers, np.array(ref_r, dtype=np.int64))
        assert np.array_equal(senders, np.array(ref_s, dtype=np.int64))

    def test_gather_neighbors_empty(self, batch):
        topo = batch.deployments[0].topology()
        receivers, senders = gather_neighbors(
            np.array([], dtype=np.int64), topo.indptr, topo.indices
        )
        assert receivers.size == 0 and senders.size == 0

    def test_counts_and_senders_reference(self, batch, index):
        """The tally of the index's pairs against per-replication loops."""
        rng = np.random.default_rng(19)
        tx = np.sort(rng.choice(index.n_nodes, size=25, replace=False)).astype(
            np.int64
        )
        counts, id_sum = counts_and_senders(*index.neighbor_pairs(tx), index.n_nodes)
        ref_counts = np.zeros(index.n_nodes, dtype=np.int64)
        ref_sum = np.zeros(index.n_nodes, dtype=float)
        offsets = batch.node_offsets
        for t in tx:
            r = int(np.searchsorted(offsets, t, side="right")) - 1
            lo = int(offsets[r])
            nbrs = lo + batch.deployments[r].topology().neighbors(int(t) - lo)
            ref_counts[nbrs] += 1
            ref_sum[nbrs] += t
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(id_sum, ref_sum)
