"""The vectorized slot-synchronous broadcast engine.

State lives in flat numpy arrays (informed mask, duplicate counters,
energy ledger) over one global id space; each slot is resolved by one
channel call over the block's band index.  This engine implements
exactly the semantics the analytical framework assumes — aligned phases
of ``s`` slots, relays scheduled for the phase after first reception —
and is the workhorse behind the Monte-Carlo reproductions of
Figs. 8–11.

There is one slot loop, :func:`run_broadcast_batch`, which advances a
block of replications together; :func:`run_broadcast` is a block of one.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.analysis.trace import BroadcastTrace
from repro.errors import ProtocolError
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.events import (
    ChannelDelivery,
    NodeInformed,
    PhaseComplete,
    RunComplete,
    SlotResolved,
    TraceEvent,
)
from repro.models.cam import CollisionAwareChannel
from repro.models.cfm import CollisionFreeChannel
from repro.models.costs import EnergyLedger
from repro.network.deployment import DeploymentBatch, DiskDeployment
from repro.network.topology import BlockIndex
from repro.protocols.base import EngineContext, RelayPolicy
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.utils.rng import SeedLike, as_seed_sequence

__all__ = ["run_broadcast", "run_broadcast_batch"]


def _build_channel(
    config: SimulationConfig, topology: BlockIndex
) -> CollisionAwareChannel | CollisionFreeChannel:
    if config.channel == "cfm":
        return CollisionFreeChannel(topology)
    return CollisionAwareChannel(topology, carrier_sense=config.carrier_sense)


def run_broadcast(
    policy: RelayPolicy,
    config: SimulationConfig,
    seed: SeedLike,
    *,
    deployment: DiskDeployment | None = None,
) -> RunResult:
    """Simulate one broadcast execution and return its result.

    A block of one: the result of :func:`run_broadcast_batch` over the
    single seed ``seed``.

    Parameters
    ----------
    policy:
        Relay strategy (e.g. :class:`~repro.protocols.pbcast.ProbabilisticRelay`).
    config:
        Scenario parameters.
    seed:
        Seed (or :class:`~numpy.random.SeedSequence`) for this run; the
        deployment draw (when not supplied) and every protocol decision
        derive from it.
    deployment:
        Optional pre-built deployment, e.g. to run several protocols on
        the identical topology (common-random-numbers comparisons).
    """
    (result,) = run_broadcast_batch(
        policy,
        config,
        [seed],
        deployments=None if deployment is None else [deployment],
    )
    return result


def run_broadcast_batch(
    policy: RelayPolicy,
    config: SimulationConfig,
    seeds: Sequence[SeedLike],
    *,
    deployments: Sequence[DiskDeployment] | None = None,
) -> list[RunResult]:
    """Simulate a whole block of replications as one stacked update.

    The ``R = len(seeds)`` replications advance in lockstep: their
    deployments are concatenated into one band index with disjoint
    global node-id blocks (:class:`~repro.network.topology.BlockIndex`),
    global state arrays (informed mask, duplicate counters, energy
    ledger) span all replications, and each slot is resolved by a
    *single* channel call — one query for the slot's neighbor pairs and
    one bincount over them serve every replication at once.  No CSR
    adjacency is built; a policy that reads ``ctx.topology`` gets its
    replication's :class:`~repro.network.topology.Topology`, built on
    first access.

    Bit-identity contract: replication ``r`` consumes random values from
    its own generator, seeded from ``seeds[r]``, in exactly the order a
    block of one would (deployment draw, source slot, then
    ``confirm``/``schedule`` per slot), and policies see the same local
    node ids, topology view, and positions.  ``run_broadcast_batch(policy,
    config, seeds)[r]`` therefore equals
    ``run_broadcast(policy, config, seeds[r])`` bit for bit; only
    RNG-free work (the band index, channel resolution) is shared across
    the block.

    Telemetry: with a tracer attached, each replication's slot events
    (``ChannelDelivery``, ``SlotResolved``, ``NodeInformed``,
    ``PhaseComplete``, ``RunComplete``) collect in a per-replication
    buffer that is flushed in replication order when the block ends, so
    a traced block of ``R`` emits exactly the concatenation of ``R``
    blocks of one.  With a span sink attached, each block reports one
    ``engine.run_batch`` span (``reps``) around a
    ``topology.build`` span (``nodes``) for the index and one
    ``engine.slot_loop`` span (``phases``, ``slots``, ``collisions``,
    ``pairs``: the neighbor pairs its queries resolved).

    Parameters
    ----------
    policy, config:
        As for :func:`run_broadcast` — one scenario, many draws.
    seeds:
        One seed (or :class:`~numpy.random.SeedSequence`) per
        replication; typically children of one root via ``spawn``.
    deployments:
        Optional pre-built deployment per replication (common-random-
        numbers comparisons); aligned with ``seeds``.

    Returns
    -------
    list[RunResult]
        Per-replication results, aligned with ``seeds``.
    """
    if len(seeds) == 0:
        raise ValueError("run_broadcast_batch needs at least one seed")
    n_reps = len(seeds)
    if deployments is not None and len(deployments) != n_reps:
        raise ValueError(
            f"got {len(deployments)} deployments for {n_reps} seeds; they must align"
        )

    seed_seqs = [as_seed_sequence(s) for s in seeds]
    rngs = [np.random.default_rng(s) for s in seed_seqs]

    # Telemetry is hoisted to one check per block plus one None-test per
    # slot, so a disabled tracer/profiler costs nothing on the hot path.
    tracer = obs_trace.get_tracer()
    emit = tracer.emit if tracer.enabled else None
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h_run = begin("engine.run_batch", "engine") if begin is not None else None

    h_deploy = begin("engine.deploy_batch", "engine") if begin is not None else None
    if deployments is None:
        batch = DeploymentBatch.sample(
            rho=config.rho,
            n_rings=config.n_rings,
            radius=config.radius,
            rngs=rngs,
            population=config.population,
        )
    else:
        batch = DeploymentBatch(list(deployments))
    carrier_radius = config.analysis.carrier_radius if config.carrier_sense else None
    h_topo = begin("topology.build", "network") if begin is not None else None
    index = BlockIndex(
        batch.positions, batch.node_offsets, batch.radius, carrier_radius=carrier_radius
    )
    if h_topo is not None:
        h_topo.end(nodes=index.n_nodes)
    channel = _build_channel(config, index)
    if h_deploy is not None:
        h_deploy.end(reps=n_reps, nodes=batch.n_nodes_total)
    offs = batch.node_offsets
    slots = config.slots

    n_field = [dep.n_field_nodes for dep in batch.deployments]
    if min(n_field) < 1:
        raise ProtocolError("deployment has no field nodes to inform")
    ring_idx = [dep.ring_indices() for dep in batch.deployments]
    # Non-disk deployments (e.g. GridDeployment) can span more distance
    # bands than the configured P; size each trace to its deployment.
    n_rings = [max(config.n_rings, int(ri.max())) for ri in ring_idx]
    ctxs = [
        EngineContext(
            positions=dep.positions,
            slots_per_phase=slots,
            radius=config.radius,
            build_topology=partial(dep.topology, carrier_radius=carrier_radius),
        )
        for dep in batch.deployments
    ]

    n_total = batch.n_nodes_total
    informed = np.zeros(n_total, dtype=bool)
    informed[offs[:-1]] = True  # every replication's source
    duplicates = np.zeros(n_total, dtype=np.int64)
    ledger = EnergyLedger(n_total)
    # Per-node overheard-sender lists, maintained only for policies that
    # ask for them (e.g. neighbor-knowledge coverage accumulation).
    overheard: list[dict[int, list[int]]] | None = (
        [{} for _ in range(n_reps)] if policy.needs_overheard else None
    )
    # Per-replication event buffers, allocated only when tracing.
    events: list[list[TraceEvent]] | None = (
        [[] for _ in range(n_reps)] if emit is not None else None
    )

    # Pending relays per replication, keyed by phase, in LOCAL node ids:
    # policies must see exactly the ids a block of one hands them.
    pending: list[dict[int, list[tuple[np.ndarray, np.ndarray]]]] = [
        {} for _ in range(n_reps)
    ]

    def push(rep: int, phase: int, nodes: np.ndarray, node_slots: np.ndarray) -> None:
        if len(nodes):
            pending[rep].setdefault(phase, []).append(
                (np.asarray(nodes, dtype=np.int64), np.asarray(node_slots, dtype=np.int64))
            )

    # Each source opens its replication in a random slot of phase 1,
    # drawn from that replication's own stream (source id is 0 locally).
    for r in range(n_reps):
        push(r, 1, np.array([0]), rngs[r].integers(0, slots, size=1))

    new_by_slot: list[list[int]] = [[] for _ in range(n_reps)]
    bcasts_by_slot: list[list[int]] = [[] for _ in range(n_reps)]
    new_by_phase_ring: list[list[np.ndarray]] = [[] for _ in range(n_reps)]
    bcasts_by_phase: list[list[float]] = [[] for _ in range(n_reps)]
    collisions = [0] * n_reps
    tx_local: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * n_reps

    h_loop = begin("engine.slot_loop", "engine") if begin is not None else None
    phase = 0
    while any(pending) and phase < config.max_phases:
        phase += 1
        # A replication is active while it still has scheduled relays;
        # finished replications simply stop accumulating (their slot
        # series end exactly where a block of one would have exited).
        active = [r for r in range(n_reps) if pending[r]]
        ph_nodes: dict[int, np.ndarray] = {}
        ph_slots: dict[int, np.ndarray] = {}
        for r in active:
            chunks = pending[r].pop(phase, [])
            if chunks:
                ph_nodes[r] = np.concatenate([c[0] for c in chunks])
                ph_slots[r] = np.concatenate([c[1] for c in chunks])
            else:  # pragma: no cover - pushes only ever target phase + 1
                ph_nodes[r] = np.zeros(0, dtype=np.int64)
                ph_slots[r] = np.zeros(0, dtype=np.int64)

        phase_new_rings = {r: np.zeros(n_rings[r], dtype=float) for r in active}
        phase_bcasts = dict.fromkeys(active, 0)
        for t in range(slots):
            tx_parts = []
            for r in active:
                candidates = ph_nodes[r][ph_slots[r] == t]
                if len(candidates):
                    heard = None
                    if overheard is not None:
                        heard = [
                            np.array(overheard[r].get(int(c), []), dtype=np.int64)
                            for c in candidates
                        ]
                    keep = policy.confirm(
                        candidates,
                        duplicates[candidates + offs[r]],
                        rngs[r],
                        ctxs[r],
                        overheard=heard,
                    )
                    keep = np.asarray(keep, dtype=bool)
                    if keep.shape != (len(candidates),):
                        raise ProtocolError(
                            f"{policy!r}.confirm returned shape {keep.shape}, "
                            f"expected ({len(candidates)},)"
                        )
                    tx = candidates[keep]
                else:
                    tx = candidates
                tx_local[r] = tx
                if len(tx):
                    tx_parts.append(tx + offs[r])

            if not tx_parts:
                for r in active:
                    new_by_slot[r].append(0)
                    bcasts_by_slot[r].append(0)
                continue

            all_tx = np.concatenate(tx_parts)
            ledger.record_tx(all_tx)
            delivery = channel.resolve_slot(all_tx)
            receivers = delivery.receivers
            senders = delivery.senders
            if config.half_duplex and len(receivers):
                # Global membership equals per-replication membership:
                # a receiver can only appear among its own block's tx.
                listening = ~np.isin(receivers, all_tx)
                receivers = receivers[listening]
                senders = senders[listening]
            ledger.record_rx(receivers)

            fresh_mask = ~informed[receivers]
            newly = receivers[fresh_mask]
            duplicates[receivers[~fresh_mask]] += 1
            informed[newly] = True
            new_senders = senders[fresh_mask]

            # receivers/newly/collided are sorted global ids, so each
            # replication's share is one contiguous run.
            col_bounds = np.searchsorted(delivery.collided, offs)
            rcv_bounds = np.searchsorted(receivers, offs)
            new_bounds = np.searchsorted(newly, offs)
            if events is not None:
                heard_bounds = np.searchsorted(delivery.receivers, offs)
            for r in active:
                n_coll = int(col_bounds[r + 1] - col_bounds[r])
                collisions[r] += n_coll
                off = int(offs[r])
                if overheard is not None:
                    lo, hi = rcv_bounds[r], rcv_bounds[r + 1]
                    for rcv, snd in zip(
                        receivers[lo:hi].tolist(), senders[lo:hi].tolist(), strict=True
                    ):
                        overheard[r].setdefault(rcv - off, []).append(snd - off)

                lo, hi = new_bounds[r], new_bounds[r + 1]
                n_new = int(hi - lo)
                if n_new:
                    newly_r = newly[lo:hi] - off
                    senders_r = new_senders[lo:hi] - off
                    will, relay_slots = policy.schedule(
                        newly_r, senders_r, rngs[r], ctxs[r]
                    )
                    will = np.asarray(will, dtype=bool)
                    relay_slots = np.asarray(relay_slots, dtype=np.int64)
                    if will.shape != (n_new,) or relay_slots.shape != (n_new,):
                        raise ProtocolError(
                            f"{policy!r}.schedule returned mismatched shapes for "
                            f"{n_new} nodes"
                        )
                    if np.any((relay_slots < 0) | (relay_slots >= slots)):
                        raise ProtocolError(
                            f"{policy!r}.schedule produced slots outside [0, {slots})"
                        )
                    push(r, phase + 1, newly_r[will], relay_slots[will])
                    phase_new_rings[r] += np.bincount(
                        ring_idx[r][newly_r], minlength=n_rings[r] + 1
                    )[1:].astype(float)

                new_by_slot[r].append(n_new)
                n_tx_r = int(len(tx_local[r]))
                bcasts_by_slot[r].append(n_tx_r)
                phase_bcasts[r] += n_tx_r

                if events is not None and n_tx_r:
                    abs_slot = (phase - 1) * slots + t
                    buf = events[r]
                    buf.append(
                        ChannelDelivery(
                            model=config.channel,
                            n_tx=n_tx_r,
                            n_rx=int(heard_bounds[r + 1] - heard_bounds[r]),
                            n_collided=n_coll,
                        )
                    )
                    buf.append(
                        SlotResolved(
                            phase=phase,
                            slot=abs_slot,
                            n_tx=n_tx_r,
                            n_rx=int(rcv_bounds[r + 1] - rcv_bounds[r]),
                            n_collisions=n_coll,
                        )
                    )
                    if n_new:
                        buf.extend(
                            NodeInformed(node=node, sender=snd, phase=phase, slot=abs_slot)
                            for node, snd in zip(
                                newly_r.tolist(), senders_r.tolist(), strict=True
                            )
                        )

        for r in active:
            new_by_phase_ring[r].append(phase_new_rings[r])
            bcasts_by_phase[r].append(float(phase_bcasts[r]))
            if events is not None:
                events[r].append(
                    PhaseComplete(
                        phase=phase,
                        n_tx=int(phase_bcasts[r]),
                        n_new=int(phase_new_rings[r].sum()),
                        informed_total=int(informed[offs[r] : offs[r + 1]].sum()),
                    )
                )

    if h_loop is not None:
        h_loop.end(
            phases=phase,
            slots=sum(len(s) for s in new_by_slot),
            collisions=sum(collisions),
            pairs=index.pairs,
        )

    results: list[RunResult] = []
    for r in range(n_reps):
        n_phases = len(bcasts_by_phase[r])
        if not n_phases:  # pragma: no cover - sources always transmit
            new_by_phase_ring[r].append(np.zeros(n_rings[r]))
            bcasts_by_phase[r].append(0.0)
        # The trace denominator must be the realized population.
        effective = config.analysis.with_(
            n_rings=n_rings[r], rho=n_field[r] / n_rings[r] ** 2
        )
        trace = BroadcastTrace(
            config=effective,
            p=getattr(policy, "p", float("nan")),
            new_by_phase_ring=np.array(new_by_phase_ring[r]),
            broadcasts_by_phase=np.array(bcasts_by_phase[r]),
        )
        lo, hi = int(offs[r]), int(offs[r + 1])
        result = RunResult(
            trace=trace,
            new_informed_by_slot=np.array(new_by_slot[r], dtype=np.int64),
            broadcasts_by_slot=np.array(bcasts_by_slot[r], dtype=np.int64),
            n_field_nodes=n_field[r],
            collisions=int(collisions[r]),
            total_tx=int(ledger.tx_counts[lo:hi].sum()),
            total_rx=int(ledger.rx_counts[lo:hi].sum()),
            seed_entropy=seed_seqs[r].entropy,
            informed_mask=informed[lo:hi].copy(),
        )
        results.append(result)
        if events is not None:
            events[r].append(
                RunComplete(
                    phases=n_phases,
                    slots=len(new_by_slot[r]),
                    collisions=result.collisions,
                    reachability=float(result.new_informed_by_slot.sum()) / n_field[r],
                    n_field_nodes=n_field[r],
                    total_tx=result.total_tx,
                    total_rx=result.total_rx,
                )
            )
    if emit is not None and events is not None:
        for buf in events:
            for event in buf:
                emit(event)
    if h_run is not None:
        h_run.end(reps=n_reps)
    return results
