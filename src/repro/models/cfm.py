"""The Collision Free Model channel (paper Sec. 3.2.1).

Under CFM every packet transmission is an atomic, guaranteed-successful
operation: all neighbors of every transmitter receive, regardless of
concurrency.  The model deliberately hides contention resolution; its
cost is carried entirely by the ``(t_f, e_f)`` pair of the
:class:`~repro.models.costs.CostModel` rather than by lost packets.
"""

from __future__ import annotations

import numpy as np

from repro.models.channel import Channel, Delivery

__all__ = ["CollisionFreeChannel"]


class CollisionFreeChannel(Channel):
    """Every transmission reaches every neighbor, always.

    When several transmitters share a receiver in one slot, the receiver
    gets *a* packet from each of them in the model's semantics; since
    the broadcast protocols only care about the information (identical
    across senders), the delivery reports the lowest-id sender for
    determinism.  That tie-break is an elementwise minimum over each
    receiver's transmitting neighbors, so one ``np.minimum.at`` scatter
    over the graph's neighbor pairs resolves the slot — over a block
    index, every replication's slot at once.
    """

    def resolve_slot(self, transmitters: np.ndarray) -> Delivery:
        tx = np.unique(np.asarray(transmitters, dtype=np.intp))
        empty = np.zeros(0, dtype=np.int64)
        if tx.size == 0:
            return Delivery(receivers=empty, senders=empty.copy(), collided=empty.copy())
        n = self.topology.n_nodes
        receivers_flat, senders_flat = self.topology.neighbor_pairs(tx)
        # n is one past any valid id, so min(n, senders) is the lowest
        # transmitting neighbor where one exists and n elsewhere.
        sender_of = np.full(n, n, dtype=np.int64)
        np.minimum.at(sender_of, receivers_flat, senders_flat)
        receivers = np.flatnonzero(sender_of < n).astype(np.int64)
        return Delivery(
            receivers=receivers,
            senders=sender_of[receivers],
            collided=empty,
        )
