"""Typed slot-level trace events.

The observability layer speaks a small, closed vocabulary of events so
that sinks, ``repro-report``, and cross-engine comparison tests all
agree on field names and semantics without schema negotiation:

``SlotResolved``
    One contended slot was resolved by the channel.  Emitted by both
    simulation engines for every slot with at least one transmission.
    ``n_collisions`` counts *receivers* that heard two or more in-range
    transmitters (the vectorized CAM convention), not corrupted-packet
    events, so the two engines emit identical streams on identical
    schedules.
``NodeInformed``
    A field node received the broadcast information for the first time.
``PhaseComplete``
    One aligned time phase finished.
``RunComplete``
    The execution reached quiescence; carries the headline totals of the
    corresponding :class:`~repro.sim.results.RunResult`.
``ChannelDelivery``
    Low-level record of one channel resolution (CAM/CFM), without phase
    context.  Channels do not emit it themselves: the vectorized engine
    emits one per replication just before that slot's ``SlotResolved``,
    and the TDMA and convergecast drivers emit one after each
    :meth:`~repro.models.channel.Channel.resolve_slot` call.
``StoreAccess``
    One result-store operation by the crash-safe scheduler
    (:mod:`repro.store.scheduler`): a cache hit/miss, a put of freshly
    computed results, or a corrupt entry dropped for recomputation.
``SearchStep``
    One probe of the :mod:`repro.optimize` frontier search: a surrogate
    evaluation of a ladder rung, or a Monte-Carlo verification of a
    shortlisted candidate.

Events are plain frozen dataclasses; :func:`event_to_dict` /
:func:`event_from_dict` define the JSONL wire form used by
:class:`~repro.obs.trace.JsonlSink` and ``repro-report --trace``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

__all__ = [
    "SlotResolved",
    "NodeInformed",
    "PhaseComplete",
    "RunComplete",
    "ChannelDelivery",
    "StoreAccess",
    "SearchStep",
    "TraceEvent",
    "EVENT_TYPES",
    "event_to_dict",
    "event_from_dict",
]


@dataclass(frozen=True)
class SlotResolved:
    """One slot with transmissions was resolved.

    Attributes
    ----------
    phase:
        1-based phase containing the slot.
    slot:
        Absolute slot index (slot 0 is the first slot of phase 1).
    n_tx:
        Transmitters in the slot (after any last-moment veto).
    n_rx:
        Successful receptions, duplicates included.
    n_collisions:
        Receivers with two or more in-range transmitters this slot.
    """

    phase: int
    slot: int
    n_tx: int
    n_rx: int
    n_collisions: int


@dataclass(frozen=True)
class NodeInformed:
    """A node's first successful reception."""

    node: int
    sender: int
    phase: int
    slot: int


@dataclass(frozen=True)
class PhaseComplete:
    """One aligned phase finished.

    ``informed_total`` counts informed nodes including the source.
    """

    phase: int
    n_tx: int
    n_new: int
    informed_total: int


@dataclass(frozen=True)
class RunComplete:
    """The execution reached quiescence (or the phase cap)."""

    phases: int
    slots: int
    collisions: int
    reachability: float
    n_field_nodes: int
    total_tx: int
    total_rx: int


@dataclass(frozen=True)
class ChannelDelivery:
    """One channel-level slot resolution (no phase context)."""

    model: str
    n_tx: int
    n_rx: int
    n_collided: int


@dataclass(frozen=True)
class StoreAccess:
    """One result-store operation during a store-backed sweep.

    Attributes
    ----------
    op:
        ``"hit"``, ``"miss"``, ``"put"`` or ``"corrupt"``.
    key:
        The content-addressed task key (64 hex chars).
    n_results:
        Results in the batch (0 for misses).
    nbytes:
        Entry size in bytes (0 when unknown, e.g. for misses).
    """

    op: str
    key: str
    n_results: int
    nbytes: int


@dataclass(frozen=True)
class SearchStep:
    """One probe of the frontier search (:mod:`repro.optimize`).

    Attributes
    ----------
    stage:
        ``"probe"`` (surrogate evaluation) or ``"verify"``
        (Monte-Carlo candidate verification).
    rung:
        Ladder rung index probed.
    p:
        The broadcast probability at that rung.
    feasible:
        Whether the query's bounds held at this point.
    value:
        The primary-objective value (NaN while infeasible).
    """

    stage: str
    rung: int
    p: float
    feasible: bool
    value: float


#: Union of every event the observability layer can emit; sinks and the
#: wire-format helpers below are typed against it.
TraceEvent = (
    SlotResolved
    | NodeInformed
    | PhaseComplete
    | RunComplete
    | ChannelDelivery
    | StoreAccess
    | SearchStep
)

EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.__name__: cls
    for cls in (
        SlotResolved,
        NodeInformed,
        PhaseComplete,
        RunComplete,
        ChannelDelivery,
        StoreAccess,
        SearchStep,
    )
}


def event_to_dict(event: TraceEvent) -> dict:
    """The JSONL wire form: the event's fields plus an ``"event"`` tag."""
    d = asdict(event)
    d["event"] = type(event).__name__
    return d


def event_from_dict(d: dict) -> TraceEvent:
    """Rebuild a typed event from :func:`event_to_dict` output.

    Unknown tags raise ``ValueError``; extra keys are ignored so traces
    written by newer versions still load.
    """
    name = d.get("event")
    cls = EVENT_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown trace event type {name!r}")
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in d.items() if k in names})
