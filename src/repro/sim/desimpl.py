"""Object-level broadcast simulation on the DES kernel.

This engine re-implements the slotted broadcast protocols as
per-node state machines with *continuous-time* collision detection:
assumption 6 verbatim — a transmission is received iff it is the only
one audible at the receiver for its entire duration.  It exists for two
reasons:

1. **Cross-validation.**  With aligned slots it must agree
   statistically with the vectorized engine (the integration tests
   check this), giving two independent implementations of CAM.
2. **The alignment ablation.**  The paper's protocol needs no time
   synchronization but its analysis assumes perfectly aligned slots
   (Sec. 3.1/4.2).  ``alignment="jitter"`` starts each node's backoff
   window at its own reception time, measuring what the alignment
   assumption is worth.

Timing conventions: one slot lasts ``1.0`` simulation time units, a
phase lasts ``slots`` units.  Under ``alignment="phase"`` a node first
informed during phase ``k`` (1-based) transmits in a uniformly chosen
slot of phase ``k+1``.  Under ``alignment="jitter"`` it transmits at
``t_rx + (1 + u)`` slot lengths, ``u`` uniform in ``{0..s-1}`` — a
random slot of its *own* next phase.  Back-to-back transmissions in
adjacent slots touch without overlapping (intervals are half-open;
simultaneous end/start events process ends first).  The per-slot series
run to the end of the last phase in which a relay was scheduled, as in
the vectorized engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.trace import BroadcastTrace
from repro.des.simulator import Simulator
from repro.errors import ProtocolError
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.events import NodeInformed, PhaseComplete, RunComplete, SlotResolved
from repro.models.costs import EnergyLedger
from repro.models.packet import Packet
from repro.network.deployment import DiskDeployment
from repro.network.node import SensorNode
from repro.protocols.base import EngineContext, RelayPolicy
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.utils.validation import check_in

__all__ = ["DesBroadcastSimulation"]

SLOT_LEN = 1.0
_END_PRIORITY = 0  # ends before starts at equal times: touching != overlap
_START_PRIORITY = 1


@dataclass
class _RadioState:
    """Continuous-time reception state of one node."""

    active: int = 0  # audible transmissions in progress
    tx_busy: int = 0  # own transmissions in progress (half-duplex)
    cur_tx: int | None = None  # transmitter currently locked onto
    cur_pkt: Packet | None = None
    cur_ok: bool = False


class DesBroadcastSimulation:
    """One broadcast execution on the event kernel.

    Build, then call :meth:`run`; results mirror
    :func:`repro.sim.engine.run_broadcast`.
    """

    def __init__(
        self,
        policy: RelayPolicy,
        config: SimulationConfig,
        seed: SeedLike,
        *,
        deployment: DiskDeployment | None = None,
        alignment: str = "phase",
    ):
        check_in("alignment", alignment, ("phase", "jitter"))
        self.policy = policy
        self.config = config
        self.alignment = alignment
        self._seed_seq = as_seed_sequence(seed)
        self.rng = np.random.default_rng(self._seed_seq)
        if deployment is None:
            deployment = DiskDeployment.sample(
                rho=config.rho,
                n_rings=config.n_rings,
                radius=config.radius,
                rng=self.rng,
                population=config.population,
            )
        self.deployment = deployment
        if deployment.n_field_nodes < 1:
            raise ProtocolError("deployment has no field nodes to inform")
        self.topology = deployment.topology(
            carrier_radius=config.analysis.carrier_radius
            if config.carrier_sense
            else None
        )
        if config.channel != "cam":
            raise ProtocolError(
                "the DES engine models CAM's physical contention; use the "
                "vectorized engine for CFM runs"
            )
        topology = self.topology
        self.ctx = EngineContext(
            positions=topology.positions,
            slots_per_phase=config.slots,
            radius=config.radius,
            build_topology=lambda: topology,
        )
        self.sim = Simulator()
        n = self.topology.n_nodes
        self.nodes = [SensorNode(i) for i in range(n)]
        self.radio = [_RadioState() for _ in range(n)]
        self.ledger = EnergyLedger(n)
        self.collisions = 0
        self._tx_log: list[tuple[float, int]] = []  # (midpoint time, sender)
        self._rx_log: list[tuple[float, int]] = []  # (tx start time, receiver) first rx
        self._last_attempt = 0.0  # latest scheduled relay, vetoed or not
        # Slot-level telemetry, populated only while a tracer is active
        # (self._emit is bound at run() start).  _slot_arrivals counts
        # in-range transmissions per (slot, receiver) so collisions can
        # be reported with the vectorized engine's receiver convention.
        self._emit = None
        self._slot_tx: dict[int, int] = {}
        self._slot_rx: dict[int, int] = {}
        self._slot_arrivals: dict[int, dict[int, int]] = {}
        if self.config.carrier_sense:
            self._audible_csr = self.topology.carrier_csr()
        else:
            self._audible_csr = (self.topology.indptr, self.topology.indices)

    # ------------------------------------------------------------------
    # transmission mechanics
    # ------------------------------------------------------------------
    def _audible(self, sender: int) -> np.ndarray:
        indptr, indices = self._audible_csr
        return indices[indptr[sender] : indptr[sender + 1]]

    def _in_range(self, sender: int) -> np.ndarray:
        return self.topology.neighbors(sender)

    def _begin_tx(self, sender: int, packet: Packet) -> None:
        node = self.nodes[sender]
        self._last_attempt = max(self._last_attempt, self.sim.now)
        # Last-moment veto (counter-based / coverage suppression).
        heard = None
        if self.policy.needs_overheard:
            heard = [np.array(node.overheard_senders, dtype=np.int64)]
        keep = self.policy.confirm(
            np.array([sender]),
            np.array([node.duplicate_receptions]),
            self.rng,
            self.ctx,
            overheard=heard,
        )
        if not bool(np.asarray(keep)[0]):
            return
        start = self.sim.now
        self.ledger.record_tx([sender])
        self._tx_log.append((start + 0.5 * SLOT_LEN, sender))

        in_range = set(int(v) for v in self._in_range(sender))
        if self._emit is not None:
            slot = int(start // SLOT_LEN)
            self._slot_tx[slot] = self._slot_tx.get(slot, 0) + 1
            arrivals = self._slot_arrivals.setdefault(slot, {})
            for w in in_range:
                arrivals[w] = arrivals.get(w, 0) + 1
        if self.config.half_duplex:
            own = self.radio[sender]
            if own.cur_pkt is not None:
                own.cur_ok = False
                self.collisions += 1
            own.tx_busy += 1
        for w in self._audible(sender):
            w = int(w)
            st = self.radio[w]
            lost = False
            if st.cur_pkt is not None and st.cur_ok:
                st.cur_ok = False  # ongoing reception corrupted
                lost = True
            if w in in_range:
                busy = st.active > 0 or (self.config.half_duplex and st.tx_busy > 0)
                if not busy:
                    st.cur_tx, st.cur_pkt, st.cur_ok = sender, packet, True
                else:
                    lost = True  # channel busy: this packet is unhearable
            if lost:
                self.collisions += 1
            st.active += 1
        self.sim.schedule(
            SLOT_LEN, self._end_tx, sender, packet, priority=_END_PRIORITY
        )

    def _end_tx(self, sender: int, packet: Packet) -> None:
        if self.config.half_duplex:
            self.radio[sender].tx_busy -= 1
        in_range = set(int(v) for v in self._in_range(sender))
        for w in self._audible(sender):
            w = int(w)
            st = self.radio[w]
            st.active -= 1
            if w in in_range and st.cur_tx == sender and st.cur_pkt is packet:
                if st.cur_ok:
                    self._deliver(w, packet)
                st.cur_tx, st.cur_pkt, st.cur_ok = None, None, False

    # ------------------------------------------------------------------
    # protocol behaviour
    # ------------------------------------------------------------------
    def _deliver(self, receiver: int, packet: Packet) -> None:
        self.ledger.record_rx([receiver])
        node = self.nodes[receiver]
        node.overheard_senders.append(packet.sender)
        now = self.sim.now
        # _deliver runs at the *end* of the transmission; the reception
        # belongs to the slot (and phase) in which the packet was sent.
        # Attributing the boundary instant to the following phase would
        # push last-slot receptions a full phase late relative to the
        # aligned-slot semantics the vectorized engine implements.
        sent_at = now - SLOT_LEN
        phase = int(sent_at // (self.config.slots * SLOT_LEN)) + 1
        first = node.mark_informed(now, phase, packet.sender)
        if self._emit is not None:
            slot = int(sent_at // SLOT_LEN)
            self._slot_rx[slot] = self._slot_rx.get(slot, 0) + 1
        if not first:
            return
        self._rx_log.append((sent_at, receiver))
        will, slot = self.policy.schedule(
            np.array([receiver]),
            np.array([packet.sender]),
            self.rng,
            self.ctx,
        )
        node.relay_decided = True
        node.will_relay = bool(np.asarray(will)[0])
        if not node.will_relay:
            return
        u = int(np.asarray(slot)[0])
        if self.alignment == "phase":
            next_phase_start = phase * self.config.slots * SLOT_LEN
            start = next_phase_start + u * SLOT_LEN
        else:  # jitter: the node's own next phase opens one slot after rx
            start = now + SLOT_LEN * (1 + u)
        relay = packet.relayed_by(receiver)
        self.sim.schedule_at(start, self._begin_tx, receiver, relay, priority=_START_PRIORITY)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the broadcast to quiescence and collect results."""
        cfg = self.config
        tracer = obs_trace.get_tracer()
        self._emit = tracer.emit if tracer.enabled else None
        prof = obs_spans.profiler()
        begin = prof.begin if prof.enabled else None
        h = begin("des.run", "engine") if begin is not None else None
        source = self.deployment.source
        self.nodes[source].informed_at = 0.0
        self.nodes[source].informed_phase = 1
        first_slot = int(self.rng.integers(0, cfg.slots))
        root = Packet(origin=source, sender=source)
        self.sim.schedule_at(
            first_slot * SLOT_LEN, self._begin_tx, source, root, priority=_START_PRIORITY
        )
        horizon = cfg.max_phases * cfg.slots * SLOT_LEN
        self.sim.run(until=horizon)

        result = self._collect()
        if h is not None:
            h.end(collisions=self.collisions)
        return result

    def _collect(self) -> RunResult:
        cfg = self.config
        n_field = self.deployment.n_field_nodes
        slots = cfg.slots
        ring_idx = self.deployment.ring_indices()
        # Non-disk deployments can span more distance bands than P.
        n_rings = max(cfg.n_rings, int(ring_idx.max()))

        # The slot series runs to the end of the last phase in which a
        # relay was scheduled (transmitted or vetoed), exactly where the
        # vectorized engine's phase loop stops.
        last = max([self._last_attempt, *(t for t, _ in self._tx_log + self._rx_log)])
        last_slot = int(last // SLOT_LEN)
        horizon_slots = (last_slot // slots + 1) * slots
        new_by_slot = np.zeros(horizon_slots, dtype=np.int64)
        bcasts_by_slot = np.zeros(horizon_slots, dtype=np.int64)
        for t, _sender in self._tx_log:
            bcasts_by_slot[int(t // SLOT_LEN)] += 1
        for t, _receiver in self._rx_log:
            new_by_slot[min(int(t // SLOT_LEN), horizon_slots - 1)] += 1

        n_phases = horizon_slots // slots
        new_by_phase_ring = np.zeros((n_phases, n_rings))
        bcasts_by_phase = np.zeros(n_phases)
        for t, receiver in self._rx_log:
            ph = min(int(t // (slots * SLOT_LEN)), n_phases - 1)
            new_by_phase_ring[ph, ring_idx[receiver] - 1] += 1
        for t, _sender in self._tx_log:
            ph = min(int(t // (slots * SLOT_LEN)), n_phases - 1)
            bcasts_by_phase[ph] += 1

        if self._emit is not None:
            self._emit_events(horizon_slots, n_phases, bcasts_by_slot, n_field)

        effective = cfg.analysis.with_(n_rings=n_rings, rho=n_field / n_rings**2)
        trace = BroadcastTrace(
            config=effective,
            p=getattr(self.policy, "p", float("nan")),
            new_by_phase_ring=new_by_phase_ring,
            broadcasts_by_phase=bcasts_by_phase,
        )
        return RunResult(
            trace=trace,
            new_informed_by_slot=new_by_slot,
            broadcasts_by_slot=bcasts_by_slot,
            n_field_nodes=n_field,
            collisions=self.collisions,
            total_tx=self.ledger.total_tx,
            total_rx=self.ledger.total_rx,
            seed_entropy=self._seed_seq.entropy,
            informed_mask=np.array([n.informed for n in self.nodes], dtype=bool),
        )

    def _emit_events(
        self,
        horizon_slots: int,
        n_phases: int,
        bcasts_by_slot: np.ndarray,
        n_field: int,
    ) -> None:
        """Replay the run as the same event stream the vectorized engine
        emits: per active slot a :class:`SlotResolved` (collisions in the
        receiver convention, from ``_slot_arrivals``) followed by that
        slot's :class:`NodeInformed` events, then per-phase and per-run
        summaries.  ``RunComplete.collisions`` keeps this engine's own
        corrupting-event convention, matching ``RunResult.collisions``.
        """
        emit = self._emit
        slots = self.config.slots
        informed_by_slot: dict[int, list[int]] = {}
        for t, receiver in self._rx_log:
            slot = min(int(t // SLOT_LEN), horizon_slots - 1)
            informed_by_slot.setdefault(slot, []).append(receiver)
        informed_total = 1  # the source
        for ph in range(1, n_phases + 1):
            phase_tx = 0
            phase_new = 0
            for slot in range((ph - 1) * slots, min(ph * slots, horizon_slots)):
                n_tx = self._slot_tx.get(slot, 0)
                newly = informed_by_slot.get(slot, ())
                if n_tx == 0 and not newly:
                    continue
                arrivals = self._slot_arrivals.get(slot, {})
                emit(
                    SlotResolved(
                        phase=ph,
                        slot=slot,
                        n_tx=n_tx,
                        n_rx=self._slot_rx.get(slot, 0),
                        n_collisions=sum(1 for c in arrivals.values() if c >= 2),
                    )
                )
                for node in sorted(newly):
                    emit(
                        NodeInformed(
                            node=int(node),
                            sender=int(self.nodes[node].first_sender),
                            phase=ph,
                            slot=slot,
                        )
                    )
                phase_tx += n_tx
                phase_new += len(newly)
            informed_total += phase_new
            emit(
                PhaseComplete(
                    phase=ph,
                    n_tx=phase_tx,
                    n_new=phase_new,
                    informed_total=informed_total,
                )
            )
        emit(
            RunComplete(
                phases=n_phases,
                slots=horizon_slots,
                collisions=self.collisions,
                reachability=len(self._rx_log) / n_field,
                n_field_nodes=n_field,
                total_tx=self.ledger.total_tx,
                total_rx=self.ledger.total_rx,
            )
        )
