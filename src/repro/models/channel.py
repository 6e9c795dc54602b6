"""The slotted channel abstraction shared by CFM and CAM.

A channel answers one question per slot: *given who transmitted, who
received what?*  The vectorized engine and the TDMA and convergecast
drivers delegate that question here, so the slotted collision semantics
of Sec. 3.2 live in exactly one class per model (the DES oracle
re-derives them in continuous time).

A channel resolves a slot from the ``(receiver, sender)`` pairs its
graph yields for the slot's transmitters: one deployment's
:class:`~repro.network.topology.Topology` gathers them from its CSR, and
a :class:`~repro.network.topology.BlockIndex` of many replications
queries its band index for them.  Channels emit no trace events;
whoever drives one reports ``ChannelDelivery`` records itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.network.topology import BlockIndex, Topology

__all__ = ["Delivery", "Channel"]


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

    def __init__(self, topology: Topology | BlockIndex) -> None:
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
