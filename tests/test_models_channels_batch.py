"""Channels over a stacked topology against the per-replication reference.

A channel resolving one slot over the stacked global id space must
produce exactly the concatenation (with offsets applied) of what the
same channel produces on each replication's own topology for the same
local transmitter sets — because the blocks are disjoint, the single
bincount pass cannot mix them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.cam import CollisionAwareChannel, counts_and_senders
from repro.models.cfm import CollisionFreeChannel
from repro.models.channel import gather_neighbors
from repro.network.deployment import DeploymentBatch

SEED = 20050113


@pytest.fixture(scope="module")
def batch():
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(4)]
    return DeploymentBatch.sample(rho=15.0, n_rings=3, rngs=rngs, population="poisson")


@pytest.fixture(scope="module")
def stacked(batch):
    return batch.stacked_topology()


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
    """``CollisionAwareChannel`` over a stacked (batch) topology."""

    @pytest.mark.parametrize("carrier_sense", [False, True], ids=["plain", "carrier"])
    def test_matches_per_replication(self, batch, stacked, carrier_sense):
        channel = CollisionAwareChannel(stacked, carrier_sense=carrier_sense)
        rng = np.random.default_rng(7)
        for _ in range(10):
            tx = _random_tx(batch, rng)
            ref = _reference_delivery(
                batch,
                lambda t: CollisionAwareChannel(t, carrier_sense=carrier_sense),
                tx,
            )
            assert_delivery_matches(channel.resolve_slot(tx), ref)

    def test_empty_slot(self, stacked):
        d = CollisionAwareChannel(stacked).resolve_slot(np.array([], dtype=np.int64))
        assert d.receivers.size == 0
        assert d.senders.size == 0
        assert d.collided.size == 0

    def test_sorted_outputs(self, batch, stacked):
        channel = CollisionAwareChannel(stacked)
        tx = _random_tx(batch, np.random.default_rng(3))
        d = channel.resolve_slot(tx)
        assert np.array_equal(d.receivers, np.sort(d.receivers))
        assert np.array_equal(d.collided, np.sort(d.collided))


class TestBatchCollisionFree:
    """``CollisionFreeChannel`` over a stacked (batch) topology."""

    def test_matches_per_replication(self, batch, stacked):
        channel = CollisionFreeChannel(stacked)
        rng = np.random.default_rng(11)
        for _ in range(10):
            tx = _random_tx(batch, rng)
            ref = _reference_delivery(batch, CollisionFreeChannel, tx)
            assert_delivery_matches(channel.resolve_slot(tx), ref)

    def test_no_collisions_ever(self, batch, stacked):
        channel = CollisionFreeChannel(stacked)
        tx = _random_tx(batch, np.random.default_rng(13))
        assert channel.resolve_slot(tx).collided.size == 0

    def test_lowest_sender_wins(self, stacked):
        """CFM tie-break is lowest transmitter id, also across the
        stacked id space (each receiver's candidates stay in-block)."""
        channel = CollisionFreeChannel(stacked)
        indptr, indices = stacked.indptr, stacked.indices
        # Find a node with >= 2 neighbors and transmit from both.
        node = int(np.argmax(np.diff(indptr) >= 2))
        nbrs = indices[indptr[node] : indptr[node] + 2]
        d = channel.resolve_slot(np.sort(nbrs))
        sender = d.senders[d.receivers == node]
        assert sender.size == 1 and sender[0] == nbrs.min()


class TestKernels:
    def test_gather_neighbors_matches_loop(self, stacked):
        rng = np.random.default_rng(17)
        tx = np.sort(rng.choice(stacked.n_nodes, size=40, replace=False)).astype(
            np.int64
        )
        receivers, senders = gather_neighbors(tx, stacked.indptr, stacked.indices)
        ref_r, ref_s = [], []
        for t in tx:
            nbrs = stacked.indices[stacked.indptr[t] : stacked.indptr[t + 1]]
            ref_r.extend(int(v) for v in nbrs)
            ref_s.extend([int(t)] * len(nbrs))
        assert np.array_equal(receivers, np.array(ref_r, dtype=np.int64))
        assert np.array_equal(senders, np.array(ref_s, dtype=np.int64))

    def test_gather_neighbors_empty(self, stacked):
        receivers, senders = gather_neighbors(
            np.array([], dtype=np.int64), stacked.indptr, stacked.indices
        )
        assert receivers.size == 0 and senders.size == 0

    def test_counts_and_senders_reference(self, stacked):
        rng = np.random.default_rng(19)
        tx = np.sort(rng.choice(stacked.n_nodes, size=25, replace=False)).astype(
            np.int64
        )
        counts, id_sum = counts_and_senders(
            tx, stacked.indptr, stacked.indices, stacked.n_nodes
        )
        ref_counts = np.zeros(stacked.n_nodes, dtype=np.int64)
        ref_sum = np.zeros(stacked.n_nodes, dtype=float)
        for t in tx:
            nbrs = stacked.indices[stacked.indptr[t] : stacked.indptr[t + 1]]
            ref_counts[nbrs] += 1
            ref_sum[nbrs] += t
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(id_sum, ref_sum)
