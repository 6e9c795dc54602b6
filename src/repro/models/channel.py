"""The slotted channel abstraction shared by CFM and CAM.

A channel answers one question per slot: *given who transmitted, who
received what?*  The vectorized engine and the TDMA and convergecast
drivers delegate that question here, so the slotted collision semantics
of Sec. 3.2 live in exactly one class per model (the DES oracle
re-derives them in continuous time).

A channel resolves a slot over any CSR topology: one deployment's
:class:`~repro.network.topology.Topology` or a
:class:`~repro.network.topology.StackedTopology` of many replications.
Channels emit no trace events; whoever drives one reports
``ChannelDelivery`` records itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.network.topology import StackedTopology, Topology

__all__ = ["Delivery", "Channel", "gather_neighbors"]


def gather_neighbors(
    tx: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(receivers, senders)`` pairs of all transmitters' CSR slices.

    One fancy index gathers every transmitter's neighbor slice;
    ``receivers[k]`` hears ``senders[k]``.  This is the shared front end
    of both collision kernels; a stacked CSR with disjoint
    per-replication id ranges makes the gather over ``R`` topologies the
    same operation as over one.

    The flat positions are built as a cumsum of unit steps with a jump
    to the next slice start at each boundary (cheaper than
    ``repeat`` + ``arange``); back-to-back slices (e.g. flooding where
    every node transmits) collapse to a single contiguous view.
    """
    starts = indptr[tx]
    ends = indptr[tx + 1]
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    nz = lengths > 0
    s_nz = starts[nz]
    e_nz = ends[nz]
    if np.array_equal(s_nz[1:], e_nz[:-1]):
        receivers = indices[s_nz[0] : e_nz[-1]]
    else:
        bounds = np.cumsum(lengths[nz])
        steps = np.ones(total, dtype=np.int64)
        steps[0] = s_nz[0]
        steps[bounds[:-1]] = s_nz[1:] - e_nz[:-1] + 1
        receivers = indices[np.cumsum(steps)]
    senders = np.repeat(tx, lengths)
    return receivers, senders


@dataclass(frozen=True)
class Delivery:
    """The outcome of one slot on one channel.

    Attributes
    ----------
    receivers:
        Node ids that successfully received a packet this slot, sorted.
    senders:
        ``senders[i]`` is the node whose packet ``receivers[i]`` got.
        Under CAM this is the unique non-colliding transmitter in range;
        under CFM, ties are resolved in favor of the lowest transmitter
        id (CFM applications treat concurrent deliveries as equivalent).
    collided:
        Node ids that heard two or more concurrent transmissions and
        therefore received nothing (empty under CFM).
    """

    receivers: np.ndarray
    senders: np.ndarray
    collided: np.ndarray

    def __post_init__(self) -> None:
        if self.receivers.shape != self.senders.shape:
            raise ValueError("receivers and senders must align")


class Channel(ABC):
    """Resolves concurrent transmissions into per-receiver deliveries."""

    def __init__(self, topology: Topology | StackedTopology) -> None:
        self.topology = topology

    @abstractmethod
    def resolve_slot(self, transmitters: np.ndarray) -> Delivery:
        """Deliveries resulting from ``transmitters`` all sending in one slot.

        Parameters
        ----------
        transmitters:
            Unique node ids transmitting in this slot.

        Notes
        -----
        Transmitting nodes can appear among the receivers: the paper's
        link model does not impose half-duplex radios, and the
        analytical framework likewise lets a broadcasting node be
        counted in its neighbors' contention.  Engines that want
        half-duplex semantics filter the delivery themselves.
        """
