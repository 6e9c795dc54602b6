"""The Collision Aware Model channel (paper Sec. 3.2.2, assumption 6).

A transmission in a slot succeeds at a given receiver iff it is the
*only* transmission arriving at that receiver for the whole slot.  With
the optional carrier-sense extension (Appendix A), any transmitter
within carrier-sense radius of the receiver also destroys the slot.

The resolution is fully vectorized: the channel's graph yields the
``(receiver, sender)`` pairs of all transmitters at once (a CSR gather
over one deployment, a band-index query over a block of replications),
per-receiver transmitter counts are accumulated with one
``np.bincount``, and the unique sender of each count==1 receiver is
recovered from a parallel id-sum ``np.bincount`` (the sum of one sender
id is the sender id).  A loop-based reference implementation is kept
for the equivalence tests.
"""

from __future__ import annotations

import numpy as np

from repro.models.channel import Channel, Delivery
from repro.network.topology import BlockIndex, Topology

__all__ = ["CollisionAwareChannel", "counts_and_senders"]


def counts_and_senders(
    receivers: np.ndarray, senders: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-receiver transmitter counts and sender-id sums of a slot's pairs.

    ``receivers[k]`` hears ``senders[k]``; two ``np.bincount`` passes
    give the receiver counts and the sums of transmitting-neighbor ids.
    The id sums stay exact in the float64 accumulator for any realistic
    network (bounded by ``n_tx * n_nodes`` ≪ 2**53 — and still so over
    a block of replications, where ids are global but per-receiver
    sender sets stay within one replication).
    """
    if receivers.size == 0:
        zeros = np.zeros(n_nodes, dtype=np.int64)
        return zeros, zeros.copy()
    counts = np.asarray(np.bincount(receivers, minlength=n_nodes), dtype=np.int64)
    id_sum = np.bincount(receivers, weights=senders, minlength=n_nodes).astype(np.int64)
    return counts, id_sum


class CollisionAwareChannel(Channel):
    """Concurrent in-range transmissions collide at their common receivers.

    Over a :class:`~repro.network.topology.BlockIndex` one
    :func:`counts_and_senders` pass resolves every replication's slot at
    once: node ids are disjoint across replications and pairs never
    cross them, so the global bincount decomposes exactly into ``R``
    independent resolutions.

    Parameters
    ----------
    topology:
        The deployment graph, or a block index of several.
    carrier_sense:
        If true, a slot additionally fails at a receiver when any node
        in the carrier-sense annulus (within ``topology.carrier_radius``
        but beyond the transmission radius) transmits in it.
    """

    def __init__(
        self, topology: Topology | BlockIndex, *, carrier_sense: bool = False
    ) -> None:
        super().__init__(topology)
        self.carrier_sense = carrier_sense

    def _counts_and_senders(
        self, tx: np.ndarray, *, carrier: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-receiver counts/id-sums (see :func:`counts_and_senders`)."""
        receivers, senders = self.topology.neighbor_pairs(tx, carrier=carrier)
        return counts_and_senders(receivers, senders, self.topology.n_nodes)

    def _counts_and_senders_reference(
        self, tx: np.ndarray, *, carrier: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Loop-based reference of :meth:`_counts_and_senders`.

        One transmitter's neighbors at a time.  Kept (and tested for
        exact equivalence against the vectorized kernel) as executable
        documentation of the slot semantics.
        """
        n = self.topology.n_nodes
        counts = np.zeros(n, dtype=np.int64)
        id_sum = np.zeros(n, dtype=np.int64)
        for t in tx:
            nbrs, _ = self.topology.neighbor_pairs(np.array([t]), carrier=carrier)
            counts[nbrs] += 1
            id_sum[nbrs] += t
        return counts, id_sum

    def resolve_slot(self, transmitters: np.ndarray) -> Delivery:
        tx = np.unique(np.asarray(transmitters, dtype=np.intp))
        empty = np.zeros(0, dtype=np.int64)
        if tx.size == 0:
            return Delivery(receivers=empty, senders=empty.copy(), collided=empty.copy())

        counts, id_sum = self._counts_and_senders(tx)
        ok = counts == 1
        if self.carrier_sense:
            c_counts, _ = self._counts_and_senders(tx, carrier=True)
            # The carrier graph contains the transmission graph, so a
            # clean slot must show exactly the one in-range transmitter.
            ok &= c_counts == 1

        receivers = np.flatnonzero(ok).astype(np.int64)
        return Delivery(
            receivers=receivers,
            senders=id_sum[receivers],
            collided=np.flatnonzero(counts >= 2).astype(np.int64),
        )
