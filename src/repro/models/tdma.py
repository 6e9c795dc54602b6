"""TDMA slot assignment — the multi-packet-reception CFM implementation.

Sec. 3.2.1 lists TDMA among the ways to realize CFM on real radios:
"assigning to each sensor node a specific time slot that is ideally
unique in its neighborhood".  For the slot to be collision-free at
every potential receiver, uniqueness must hold over *two* hops — two
transmitters sharing a neighbor must differ — i.e. the schedule is a
distance-2 coloring of the communication graph.

This module provides

* :func:`distance2_coloring` — greedy largest-degree-first coloring of
  the square of the graph (the classic ``O(rho^2)``-colors heuristic);
* :class:`TdmaSchedule` — the schedule plus its validity checker; and
* :func:`run_tdma_flooding` — flooding where each node transmits once
  in its own slot of the repeating frame, executed over the *CAM*
  channel so the collision-freedom is verified rather than assumed.

The price of the reliability is latency: the frame is ``n_slots`` long,
so the paper's trade-off (CFM's easy semantics vs density-dependent
hidden costs) shows up as frame length growing roughly with ``rho``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.models.cam import CollisionAwareChannel
from repro.network.deployment import DiskDeployment
from repro.network.topology import Topology
from repro.obs import trace as obs_trace
from repro.obs.events import ChannelDelivery

__all__ = ["distance2_coloring", "TdmaSchedule", "TdmaFloodingResult", "run_tdma_flooding"]


def _two_hop_neighbors(topology: Topology, node: int) -> np.ndarray:
    """Distinct nodes within two hops of ``node`` (itself excluded)."""
    one = topology.neighbors(node)
    if len(one) == 0:
        return one
    parts = [one]
    for v in one:
        parts.append(topology.neighbors(int(v)))
    out = np.unique(np.concatenate(parts))
    return out[out != node]


def distance2_coloring(topology: Topology) -> np.ndarray:
    """Greedy distance-2 coloring, largest degree first.

    Returns an array of slot indices (colors), one per node; any two
    nodes within two hops receive different colors, which makes the
    induced TDMA schedule collision-free under assumption 6.
    """
    n = topology.n_nodes
    colors = np.full(n, -1, dtype=np.int64)
    order = np.argsort(-topology.degrees, kind="stable")
    for node in order:
        node = int(node)
        taken = {int(colors[v]) for v in _two_hop_neighbors(topology, node)}
        c = 0
        while c in taken:
            c += 1
        colors[node] = c
    return colors


@dataclass(frozen=True)
class TdmaSchedule:
    """A TDMA frame: per-node slot assignments.

    Attributes
    ----------
    slots:
        ``slots[v]`` is node ``v``'s transmission slot within the frame.
    n_slots:
        Frame length (number of distinct slots).
    """

    slots: np.ndarray = field(repr=False)
    n_slots: int

    @classmethod
    def build(cls, topology: Topology) -> "TdmaSchedule":
        """Color the topology and wrap the result."""
        colors = distance2_coloring(topology)
        return cls(slots=colors, n_slots=int(colors.max()) + 1 if len(colors) else 0)

    def is_valid(self, topology: Topology) -> bool:
        """True iff no two nodes within two hops share a slot."""
        for node in range(topology.n_nodes):
            two_hop = _two_hop_neighbors(topology, node)
            if np.any(self.slots[two_hop] == self.slots[node]):
                return False
        return True


@dataclass(frozen=True)
class TdmaFloodingResult:
    """Outcome of flooding over a TDMA schedule.

    Attributes
    ----------
    reachability:
        Fraction of field nodes informed (1.0 on connected graphs —
        the CFM contract).
    latency_slots:
        Absolute slots until the last reception.
    latency_frames:
        The same in frames (``latency_slots / frame_length``).
    frame_length:
        Slots per frame (the schedule's color count).
    broadcasts:
        Transmissions performed (each informed node exactly once).
    collisions:
        Collision events observed by the CAM channel — must be 0; kept
        as the verified invariant rather than an assumption.
    """

    reachability: float
    latency_slots: int
    latency_frames: float
    frame_length: int
    broadcasts: int
    collisions: int


# TDMA flooding is deterministic: the schedule is a greedy coloring and
# every informed node transmits exactly once, so there is no randomness
# to seed (the deployment is the caller's).
def run_tdma_flooding(
    deployment: DiskDeployment,
    *,
    schedule: TdmaSchedule | None = None,
    max_frames: int = 10_000,
) -> TdmaFloodingResult:
    """Flood over TDMA: each informed node transmits once, in its own slot.

    The execution runs on the CAM channel, so if the schedule were
    invalid the collisions would be observed (and the returned count
    non-zero); with a valid distance-2 coloring the run realizes CFM's
    reliable broadcast exactly.
    """
    topology = deployment.topology()
    sched = schedule or TdmaSchedule.build(topology)
    if sched.n_slots == 0:
        raise SimulationError("empty schedule")
    channel = CollisionAwareChannel(topology)
    tracer = obs_trace.get_tracer()
    emit = tracer.emit if tracer.enabled else None

    informed = np.zeros(topology.n_nodes, dtype=bool)
    informed[deployment.source] = True
    pending = {deployment.source}  # informed but not yet transmitted
    broadcasts = 0
    collisions = 0
    last_rx_slot = 0
    slot_abs = -1

    for _frame in range(max_frames):
        if not pending:
            break
        for slot in range(sched.n_slots):
            slot_abs += 1
            tx = np.array(
                [v for v in sorted(pending) if sched.slots[v] == slot], dtype=np.intp
            )
            if len(tx) == 0:
                continue
            pending.difference_update(int(v) for v in tx)
            broadcasts += len(tx)
            delivery = channel.resolve_slot(tx)
            if emit is not None:
                emit(
                    ChannelDelivery(
                        model="cam",
                        n_tx=len(tx),
                        n_rx=len(delivery.receivers),
                        n_collided=len(delivery.collided),
                    )
                )
            collisions += len(delivery.collided)
            fresh = delivery.receivers[~informed[delivery.receivers]]
            if len(fresh):
                informed[fresh] = True
                last_rx_slot = slot_abs
                pending.update(int(v) for v in fresh)
    else:  # pragma: no cover - bounded by frame budget
        raise SimulationError(f"TDMA flooding did not finish in {max_frames} frames")

    n_field = deployment.n_field_nodes
    return TdmaFloodingResult(
        reachability=float(informed.sum() - 1) / n_field,
        latency_slots=last_rx_slot + 1,
        latency_frames=(last_rx_slot + 1) / sched.n_slots,
        frame_length=sched.n_slots,
        broadcasts=broadcasts,
        collisions=collisions,
    )
