"""Convergecast (data gathering) over the broadcast tree — unicast under CAM.

The paper's related work motivates CFM with in-network processing and
data gathering; its models explicitly cover "both broadcast and
unicast" primitives (Sec. 3.2).  This module exercises the *unicast*
half with the canonical NSS workload: after a broadcast establishes a
routing tree (each node's parent = the node whose packet first informed
it), every node sends one data report to the source, hop by hop up the
tree.

Under CAM, an upward unicast is received by the parent iff no other
transmission is audible at the parent in that slot — the same
assumption-6 collision law; the intended destination merely selects
*which* reception matters.  Senders retransmit in later phases until
their parent has taken custody of the report (idealized out-of-band
ACK, as in :mod:`repro.sim.reliable`, with the same cost accounting).

This is an extension workload, not a paper figure; it shows the link
models carrying an application beyond broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.models.cam import CollisionAwareChannel
from repro.network.deployment import DiskDeployment
from repro.obs import trace as obs_trace
from repro.obs.events import ChannelDelivery
from repro.sim.config import SimulationConfig
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.utils.validation import check_positive_int

__all__ = ["ConvergecastResult", "run_convergecast"]


@dataclass(frozen=True)
class ConvergecastResult:
    """Outcome of one data-gathering execution.

    Attributes
    ----------
    delivered:
        Reports that reached the source.
    generated:
        Reports generated (= nodes in the routing tree, source excluded).
    transmissions:
        Total upward unicast transmissions (including retries).
    phases:
        Slotted phases the gathering took.
    tree_depth:
        Maximum hop distance in the routing tree.
    delivery_ratio:
        ``delivered / generated``.
    """

    delivered: int
    generated: int
    transmissions: int
    phases: int
    tree_depth: int
    parents: np.ndarray = field(repr=False)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.generated if self.generated else 1.0


def _build_tree(deployment: DiskDeployment) -> np.ndarray:
    """Parent pointers of the idealized first-reception (BFS) tree.

    The tree only needs *a* spanning structure; real systems build it
    with reliable primitives during deployment, so we use the CFM-style
    idealization and let CAM apply to the data traffic.
    """
    topo = deployment.topology()
    n = topo.n_nodes
    parents = np.full(n, -1, dtype=np.int64)
    # BFS from the source gives the idealized first-reception tree.
    order = [deployment.source]
    seen = np.zeros(n, dtype=bool)
    seen[deployment.source] = True
    while order:
        u = order.pop(0)
        for v in topo.neighbors(u):
            v = int(v)
            if not seen[v]:
                seen[v] = True
                parents[v] = u
                order.append(v)
    return parents


def run_convergecast(
    config: SimulationConfig,
    seed: SeedLike,
    *,
    deployment: DiskDeployment | None = None,
    max_phases: int = 5000,
    max_attempts_per_hop: int = 500,
    tx_probability: float | None = None,
) -> ConvergecastResult:
    """Gather one report from every tree node to the source under CAM.

    Each phase, every node holding undelivered reports decides with
    probability ``tx_probability`` to contend, picks a random slot, and
    unicasts its oldest report to its parent; the parent receives iff
    the slot is collision-free at it (assumption 6).  Delivered custody
    moves up one hop; reports reaching the source leave the system.
    Nodes outside the source's component generate no reports.

    ``tx_probability=None`` auto-tunes to ``min(1, s / mean_degree)`` —
    roughly one contender per slot per neighborhood — which is exactly
    the PB_CAM lesson (optimal transmission probability ~ ``s / rho``)
    carried over to the gathering workload.  With ``tx_probability=1``
    (everyone contends every phase) dense networks livelock on
    collisions, the unicast analogue of the broadcast storm.
    """
    check_positive_int("max_phases", max_phases)
    seed_seq = as_seed_sequence(seed)
    rng = np.random.default_rng(seed_seq)
    if deployment is None:
        deployment = DiskDeployment.sample(
            rho=config.rho,
            n_rings=config.n_rings,
            radius=config.radius,
            rng=rng,
            population=config.population,
        )
    topo = deployment.topology()
    channel = CollisionAwareChannel(topo, carrier_sense=config.carrier_sense)
    tracer = obs_trace.get_tracer()
    emit = tracer.emit if tracer.enabled else None
    parents = _build_tree(deployment)
    source = deployment.source

    in_tree = parents >= 0
    generated = int(in_tree.sum())
    depth = np.zeros(topo.n_nodes, dtype=np.int64)
    for v in np.flatnonzero(in_tree):
        d, u = 0, int(v)
        while parents[u] >= 0:
            u = int(parents[u])
            d += 1
            if d > topo.n_nodes:  # pragma: no cover - tree is acyclic
                raise SimulationError("cycle in routing tree")
        depth[v] = d

    # queue[v] = number of reports currently held by v (not yet passed up).
    queue = np.zeros(topo.n_nodes, dtype=np.int64)
    queue[in_tree] = 1
    attempts_left = np.full(topo.n_nodes, max_attempts_per_hop, dtype=np.int64)
    delivered = 0
    transmissions = 0
    slots = config.slots
    if tx_probability is None:
        q = min(1.0, slots / max(topo.mean_degree, 1.0))
    else:
        from repro.utils.validation import check_probability

        q = check_probability("tx_probability", tx_probability, allow_zero=False)

    phase = 0
    while phase < max_phases:
        ready = np.flatnonzero((queue > 0) & (attempts_left > 0))
        ready = ready[ready != source]
        if len(ready) == 0:
            break
        phase += 1
        holders = ready[rng.random(len(ready)) < q]
        if len(holders) == 0:
            continue
        slot_choice = rng.integers(0, slots, size=len(holders))
        for t in range(slots):
            tx = holders[slot_choice == t]
            if len(tx) == 0:
                continue
            transmissions += len(tx)
            attempts_left[tx] -= 1
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
            # A sender succeeds iff its own parent heard *its* packet
            # cleanly this slot.
            got = np.zeros(len(tx), dtype=bool)
            receiver_sender = dict(
                zip(delivery.receivers.tolist(), delivery.senders.tolist(), strict=True)
            )
            for i, s in enumerate(tx.tolist()):
                p = int(parents[s])
                got[i] = receiver_sender.get(p) == s
            winners = tx[got]
            if len(winners):
                queue[winners] -= 1
                attempts_left[winners] = max_attempts_per_hop
                for w in winners.tolist():
                    p = int(parents[w])
                    if p == source:
                        delivered += 1
                    else:
                        queue[p] += 1

    return ConvergecastResult(
        delivered=delivered,
        generated=generated,
        transmissions=transmissions,
        phases=phase,
        tree_depth=int(depth.max()) if topo.n_nodes else 0,
        parents=parents,
    )
