"""The vectorized slot-synchronous broadcast engine.

State lives in flat numpy arrays (informed mask, duplicate counters,
first-sender ids); each slot is resolved by one channel call over CSR
adjacency.  This engine implements exactly the semantics the analytical
framework assumes — aligned phases of ``s`` slots, relays scheduled for
the phase after first reception — and is the workhorse behind the
Monte-Carlo reproductions of Figs. 8–11.
"""

from __future__ import annotations

import time

import numpy as np

from typing import Sequence

from repro.analysis.trace import BroadcastTrace
from repro.errors import ProtocolError
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.events import NodeInformed, PhaseComplete, RunComplete, SlotResolved
from repro.models.cam import BatchCollisionAwareChannel, CollisionAwareChannel
from repro.models.cfm import BatchCollisionFreeChannel, CollisionFreeChannel
from repro.models.costs import EnergyLedger
from repro.network.deployment import DeploymentBatch, DiskDeployment
from repro.network.topology import StackedTopology
from repro.protocols.base import EngineContext, RelayPolicy
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.utils.rng import SeedLike, as_seed_sequence

__all__ = ["run_broadcast", "run_broadcast_batch"]


def _build_channel(config: SimulationConfig, topology):
    if config.channel == "cfm":
        return CollisionFreeChannel(topology)
    return CollisionAwareChannel(topology, carrier_sense=config.carrier_sense)


def _build_batch_channel(config: SimulationConfig, topology: StackedTopology):
    if config.channel == "cfm":
        return BatchCollisionFreeChannel(topology)
    return BatchCollisionAwareChannel(topology, carrier_sense=config.carrier_sense)


def run_broadcast(
    policy: RelayPolicy,
    config: SimulationConfig,
    seed: SeedLike,
    *,
    deployment: DiskDeployment | None = None,
) -> RunResult:
    """Simulate one broadcast execution and return its result.

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
    seed_seq = as_seed_sequence(seed)
    rng = np.random.default_rng(seed_seq)

    # Telemetry is hoisted to one check per run plus one None-test per
    # slot, so a disabled tracer/registry costs nothing on the hot path.
    tracer = obs_trace.get_tracer()
    emit = tracer.emit if tracer.enabled else None
    reg = obs_metrics.registry()
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h_run = begin("engine.run", "engine") if begin is not None else None
    t_run0 = time.perf_counter() if reg.enabled else 0.0

    h_deploy = begin("engine.deploy", "engine") if begin is not None else None
    if deployment is None:
        deployment = DiskDeployment.sample(
            rho=config.rho,
            n_rings=config.n_rings,
            radius=config.radius,
            rng=rng,
            population=config.population,
        )
    # The channel is built inside the span: with carrier sense on it
    # forces the carrier-radius graph, the second unit-disk build.
    h_topo = begin("topology.build", "network") if begin is not None else None
    topology = deployment.topology(
        carrier_radius=config.analysis.carrier_radius if config.carrier_sense else None
    )
    channel = _build_channel(config, topology)
    if h_topo is not None:
        h_topo.end(nodes=topology.n_nodes, edges=topology.n_edges)
    if h_deploy is not None:
        h_deploy.end(nodes=topology.n_nodes)
    ctx = EngineContext(
        topology=topology, slots_per_phase=config.slots, radius=config.radius
    )
    n = topology.n_nodes
    source = deployment.source
    n_field = deployment.n_field_nodes
    if n_field < 1:
        raise ProtocolError("deployment has no field nodes to inform")
    ring_idx = deployment.ring_indices()
    # Non-disk deployments (e.g. GridDeployment) can span more distance
    # bands than the configured P; size the trace to the deployment.
    n_rings = max(config.n_rings, int(ring_idx.max()))
    slots = config.slots

    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    duplicates = np.zeros(n, dtype=np.int64)
    ledger = EnergyLedger(n)
    # Per-node overheard-sender lists, maintained only for policies that
    # ask for them (e.g. neighbor-knowledge coverage accumulation).
    overheard: dict[int, list[int]] | None = {} if policy.needs_overheard else None

    # Pending relays, keyed by phase: parallel (nodes, slots) arrays.
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    def push(phase: int, nodes: np.ndarray, node_slots: np.ndarray) -> None:
        if len(nodes):
            pending.setdefault(phase, []).append(
                (np.asarray(nodes, dtype=np.int64), np.asarray(node_slots, dtype=np.int64))
            )

    # The source opens the algorithm in a random slot of phase 1.
    push(1, np.array([source]), rng.integers(0, slots, size=1))

    new_by_slot: list[int] = []
    bcasts_by_slot: list[int] = []
    new_by_phase_ring: list[np.ndarray] = []
    bcasts_by_phase: list[float] = []
    collisions = 0

    h_loop = begin("engine.slot_loop", "engine") if begin is not None else None
    phase = 0
    while pending and phase < config.max_phases:
        phase += 1
        chunks = pending.pop(phase, [])
        if chunks:
            ph_nodes = np.concatenate([c[0] for c in chunks])
            ph_slots = np.concatenate([c[1] for c in chunks])
        else:
            ph_nodes = np.zeros(0, dtype=np.int64)
            ph_slots = np.zeros(0, dtype=np.int64)

        phase_new_rings = np.zeros(n_rings, dtype=float)
        phase_bcasts = 0
        for t in range(slots):
            mask = ph_slots == t
            candidates = ph_nodes[mask]
            if len(candidates):
                heard = None
                if overheard is not None:
                    heard = [
                        np.array(overheard.get(int(c), []), dtype=np.int64)
                        for c in candidates
                    ]
                keep = policy.confirm(
                    candidates, duplicates[candidates], rng, ctx, overheard=heard
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

            if len(tx) == 0:
                new_by_slot.append(0)
                bcasts_by_slot.append(0)
                continue

            ledger.record_tx(tx)
            delivery = channel.resolve_slot(tx)
            receivers = delivery.receivers
            senders = delivery.senders
            if config.half_duplex and len(receivers):
                listening = ~np.isin(receivers, tx)
                receivers = receivers[listening]
                senders = senders[listening]
            collisions += len(delivery.collided)
            ledger.record_rx(receivers)

            fresh_mask = ~informed[receivers]
            newly = receivers[fresh_mask]
            duplicates[receivers[~fresh_mask]] += 1
            informed[newly] = True
            if overheard is not None:
                for r, s in zip(receivers.tolist(), senders.tolist(), strict=True):
                    overheard.setdefault(r, []).append(s)

            if len(newly):
                will, relay_slots = policy.schedule(
                    newly, senders[fresh_mask], rng, ctx
                )
                will = np.asarray(will, dtype=bool)
                relay_slots = np.asarray(relay_slots, dtype=np.int64)
                if will.shape != (len(newly),) or relay_slots.shape != (len(newly),):
                    raise ProtocolError(
                        f"{policy!r}.schedule returned mismatched shapes for "
                        f"{len(newly)} nodes"
                    )
                if np.any((relay_slots < 0) | (relay_slots >= slots)):
                    raise ProtocolError(
                        f"{policy!r}.schedule produced slots outside [0, {slots})"
                    )
                push(phase + 1, newly[will], relay_slots[will])
                phase_new_rings += np.bincount(
                    ring_idx[newly], minlength=n_rings + 1
                )[1:].astype(float)

            new_by_slot.append(int(len(newly)))
            bcasts_by_slot.append(int(len(tx)))
            phase_bcasts += int(len(tx))

            if emit is not None:
                abs_slot = (phase - 1) * slots + t
                emit(
                    SlotResolved(
                        phase=phase,
                        slot=abs_slot,
                        n_tx=int(len(tx)),
                        n_rx=int(len(receivers)),
                        n_collisions=int(len(delivery.collided)),
                    )
                )
                for node, snd in zip(newly.tolist(), senders[fresh_mask].tolist(), strict=True):
                    emit(
                        NodeInformed(
                            node=int(node), sender=int(snd), phase=phase, slot=abs_slot
                        )
                    )

        new_by_phase_ring.append(phase_new_rings)
        bcasts_by_phase.append(float(phase_bcasts))
        if emit is not None:
            emit(
                PhaseComplete(
                    phase=phase,
                    n_tx=int(phase_bcasts),
                    n_new=int(phase_new_rings.sum()),
                    informed_total=int(informed.sum()),
                )
            )

    if h_loop is not None:
        h_loop.end(phases=phase, slots=len(new_by_slot), collisions=collisions)
    if not new_by_phase_ring:  # pragma: no cover - source always transmits
        new_by_phase_ring.append(np.zeros(n_rings))
        bcasts_by_phase.append(0.0)

    # The trace denominator must be the realized population.
    effective = config.analysis.with_(n_rings=n_rings, rho=n_field / n_rings**2)
    trace = BroadcastTrace(
        config=effective,
        p=getattr(policy, "p", float("nan")),
        new_by_phase_ring=np.array(new_by_phase_ring),
        broadcasts_by_phase=np.array(bcasts_by_phase),
    )
    new_by_slot_arr = np.array(new_by_slot, dtype=np.int64)
    if emit is not None:
        emit(
            RunComplete(
                phases=phase,
                slots=len(new_by_slot),
                collisions=int(collisions),
                reachability=float(new_by_slot_arr.sum()) / n_field,
                n_field_nodes=n_field,
                total_tx=int(ledger.total_tx),
                total_rx=int(ledger.total_rx),
            )
        )
    metrics_snapshot = None
    if reg.enabled:
        reg.counter("engine.runs").inc()
        reg.counter("engine.slots_resolved").inc(len(new_by_slot))
        reg.counter("engine.collisions").inc(int(collisions))
        reg.timer("engine.run").add(time.perf_counter() - t_run0)
        metrics_snapshot = reg.snapshot()
    if h_run is not None:
        h_run.end(slots=len(new_by_slot), collisions=collisions)
    return RunResult(
        trace=trace,
        new_informed_by_slot=new_by_slot_arr,
        broadcasts_by_slot=np.array(bcasts_by_slot, dtype=np.int64),
        n_field_nodes=n_field,
        collisions=int(collisions),
        total_tx=ledger.total_tx,
        total_rx=ledger.total_rx,
        seed_entropy=seed_seq.entropy,
        informed_mask=informed,
        metrics=metrics_snapshot,
    )


def run_broadcast_batch(
    policy: RelayPolicy,
    config: SimulationConfig,
    seeds: Sequence[SeedLike],
    n_reps: int | None = None,
    *,
    deployments: Sequence[DiskDeployment] | None = None,
) -> list[RunResult]:
    """Simulate a whole block of replications as one stacked update.

    The ``R = len(seeds)`` replications advance in lockstep: their
    deployments are concatenated into one stacked CSR adjacency with
    disjoint global node-id blocks
    (:class:`~repro.network.topology.StackedTopology`), global state
    arrays (informed mask, duplicate counters, energy ledger) span all
    replications, and each slot is resolved by a *single* batched
    channel call — one offset-bincount over the stacked sender lists
    serves every replication at once.

    Bit-identity contract: replication ``r`` consumes random values from
    its own generator, seeded from ``seeds[r]``, in exactly the order
    :func:`run_broadcast` would (deployment draw, source slot, then
    ``confirm``/``schedule`` per slot), and policies see the same local
    node ids, topology view, and positions.  ``run_broadcast_batch(policy,
    config, seeds)[r]`` therefore equals
    ``run_broadcast(policy, config, seeds[r])`` bit for bit; only
    RNG-free work (topology construction, channel resolution) is shared
    across the batch.

    Telemetry: no per-slot trace events are emitted here — the runner
    routes traced work to the per-run engine, which reports each
    replication as its own event stream (see
    :func:`repro.sim.runner.replicate`).  The metrics registry, when
    enabled, sees one ``engine.run_batch`` timer sample per block.

    Parameters
    ----------
    policy, config:
        As for :func:`run_broadcast` — one scenario, many draws.
    seeds:
        One seed (or :class:`~numpy.random.SeedSequence`) per
        replication; typically children of one root via ``spawn``.
    n_reps:
        Optional explicit block size ``R``; must equal ``len(seeds)``
        when given (it exists so call sites can assert their block
        bookkeeping).
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
    n = len(seeds)
    if n_reps is not None and n_reps != n:
        raise ValueError(f"n_reps={n_reps} does not match len(seeds)={n}")
    if deployments is not None and len(deployments) != n:
        raise ValueError(
            f"got {len(deployments)} deployments for {n} seeds; they must align"
        )
    n_reps = n

    seed_seqs = [as_seed_sequence(s) for s in seeds]
    rngs = [np.random.default_rng(s) for s in seed_seqs]

    reg = obs_metrics.registry()
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h_run = begin("engine.run_batch", "engine") if begin is not None else None
    t_run0 = time.perf_counter() if reg.enabled else 0.0

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
    h_topo = begin("topology.build", "network") if begin is not None else None
    stacked = batch.stacked_topology(
        carrier_radius=config.analysis.carrier_radius if config.carrier_sense else None
    )
    channel = _build_batch_channel(config, stacked)
    if h_topo is not None:
        h_topo.end(nodes=stacked.n_nodes, edges=int(stacked.indptr[-1]) // 2)
    if h_deploy is not None:
        h_deploy.end(reps=n_reps, nodes=batch.n_nodes_total)
    offs = batch.node_offsets
    slots = config.slots

    n_field = [dep.n_field_nodes for dep in batch.deployments]
    if min(n_field) < 1:
        raise ProtocolError("deployment has no field nodes to inform")
    ring_idx = [dep.ring_indices() for dep in batch.deployments]
    n_rings = [max(config.n_rings, int(ri.max())) for ri in ring_idx]
    ctxs = [
        EngineContext(
            topology=stacked.rep_topology(r),
            slots_per_phase=slots,
            radius=config.radius,
        )
        for r in range(n_reps)
    ]

    n_total = batch.n_nodes_total
    informed = np.zeros(n_total, dtype=bool)
    informed[offs[:-1]] = True  # every replication's source
    duplicates = np.zeros(n_total, dtype=np.int64)
    ledger = EnergyLedger(n_total)
    overheard: list[dict[int, list[int]]] | None = (
        [{} for _ in range(n_reps)] if policy.needs_overheard else None
    )

    # Pending relays per replication, in LOCAL node ids: policies must
    # see exactly the ids the per-run engine would hand them.
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
        # series end exactly where the per-run loop would have exited).
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
            for r in active:
                collisions[r] += int(col_bounds[r + 1] - col_bounds[r])
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
                    will, relay_slots = policy.schedule(
                        newly_r, new_senders[lo:hi] - off, rngs[r], ctxs[r]
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

        for r in active:
            new_by_phase_ring[r].append(phase_new_rings[r])
            bcasts_by_phase[r].append(float(phase_bcasts[r]))

    if h_loop is not None:
        h_loop.end(
            phases=phase,
            slots=sum(len(s) for s in new_by_slot),
            collisions=sum(collisions),
        )
    metrics_snapshot = None
    if reg.enabled:
        reg.counter("engine.runs").inc(n_reps)
        reg.counter("engine.slots_resolved").inc(sum(len(s) for s in new_by_slot))
        reg.counter("engine.collisions").inc(int(sum(collisions)))
        reg.counter("engine.batches").inc()
        reg.timer("engine.run_batch").add(time.perf_counter() - t_run0)
        metrics_snapshot = reg.snapshot()

    results: list[RunResult] = []
    for r in range(n_reps):
        if not new_by_phase_ring[r]:  # pragma: no cover - sources always transmit
            new_by_phase_ring[r].append(np.zeros(n_rings[r]))
            bcasts_by_phase[r].append(0.0)
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
        results.append(
            RunResult(
                trace=trace,
                new_informed_by_slot=np.array(new_by_slot[r], dtype=np.int64),
                broadcasts_by_slot=np.array(bcasts_by_slot[r], dtype=np.int64),
                n_field_nodes=n_field[r],
                collisions=int(collisions[r]),
                total_tx=int(ledger.tx_counts[lo:hi].sum()),
                total_rx=int(ledger.rx_counts[lo:hi].sum()),
                seed_entropy=seed_seqs[r].entropy,
                informed_mask=informed[lo:hi].copy(),
                metrics=metrics_snapshot,
            )
        )
    if h_run is not None:
        h_run.end(reps=n_reps)
    return results
