"""The event tracing API: a process-global tracer with pluggable sinks.

Design constraints, in order:

1. **Zero overhead when disabled.**  The engines hoist the check to one
   attribute read per run (``emit = tracer.emit if tracer.enabled else
   None``) and one ``is not None`` test per slot; with no sink attached
   nothing else runs, no event objects are allocated.
2. **Composable capture.**  :func:`capture` attaches a sink for the
   dynamic extent of a ``with`` block, so a test (or a user chasing a
   divergence) can trace one run without touching global configuration.
3. **Dumb sinks.**  A sink is anything with an ``emit(event)`` method;
   the tracer fans out to every attached sink in attachment order.

The tracer is process-global.  A pooled sweep is traced whole anyway:
a pool worker of :func:`repro.store.scheduler.run_tasks` never writes
into the sinks it inherited through fork; it captures its block's
events and sends them home with the block's results, and the parent
emits them, each block's runs contiguous and in replication order.
Blocks reach the sinks in completion order, where an in-process run
(``workers=1``) keeps task order.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Protocol, TypeVar

from repro.obs.events import TraceEvent, event_from_dict, event_to_dict

__all__ = [
    "Sink",
    "Tracer",
    "RingBufferSink",
    "JsonlSink",
    "NullSink",
    "get_tracer",
    "attach",
    "detach",
    "capture",
    "read_jsonl",
]


class Sink(Protocol):
    """Anything with an ``emit(event)`` method can receive events."""

    def emit(self, event: TraceEvent) -> None: ...


_E = TypeVar("_E", bound=TraceEvent)


class Tracer:
    """Fan-out point for trace events.

    Hot-path contract: reading :attr:`enabled` is one attribute access;
    :meth:`emit` is only called when at least one sink is attached.
    """

    __slots__ = ("_sinks", "enabled")

    def __init__(self) -> None:
        self._sinks: list[Sink] = []
        self.enabled = False

    def attach(self, sink: Sink) -> None:
        """Add a sink (idempotent)."""
        if sink not in self._sinks:
            self._sinks.append(sink)
        self.enabled = True

    def detach(self, sink: Sink) -> None:
        """Remove a sink; unknown sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self.enabled = bool(self._sinks)

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return tuple(self._sinks)

    def emit(self, event: TraceEvent) -> None:
        """Deliver one event to every attached sink."""
        for sink in self._sinks:
            sink.emit(event)


class RingBufferSink:
    """Keep the last ``maxlen`` events in memory (``None`` = unbounded)."""

    def __init__(self, maxlen: int | None = None) -> None:
        self._events: deque[TraceEvent] = deque(maxlen=maxlen)

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def of_type(self, event_type: type[_E]) -> list[_E]:
        """Buffered events of one type, oldest first."""
        return [e for e in self._events if isinstance(e, event_type)]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink:
    """Append events to a JSON-lines file (one event object per line)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None

    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:
            self._fh = self.path.open("a")
        self._fh.write(json.dumps(event_to_dict(event)) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class NullSink:
    """Count events and drop them (measures the emit path's own cost)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, event: TraceEvent) -> None:
        self.count += 1


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer the engines consult."""
    return _TRACER


def attach(sink: Sink) -> None:
    """Attach a sink to the global tracer until :func:`detach`."""
    _TRACER.attach(sink)


def detach(sink: Sink) -> None:
    """Detach a sink from the global tracer."""
    _TRACER.detach(sink)


@contextmanager
def capture(sink: Sink | None = None) -> Iterator[Sink]:
    """Attach ``sink`` (default: a fresh unbounded ring buffer) for a block.

    Yields the sink; on exit it is detached and, if it has a ``close``
    method (e.g. :class:`JsonlSink`), closed.

    >>> from repro.obs import trace
    >>> with trace.capture() as buf:       # doctest: +SKIP
    ...     run_broadcast(policy, config, seed)
    >>> buf.of_type(SlotResolved)          # doctest: +SKIP
    """
    if sink is None:
        sink = RingBufferSink()
    _TRACER.attach(sink)
    try:
        yield sink
    finally:
        _TRACER.detach(sink)
        close = getattr(sink, "close", None)
        if close is not None:
            close()


def read_jsonl(path: str | Path) -> Iterable[TraceEvent]:
    """Iterate the typed events of a :class:`JsonlSink` file."""
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield event_from_dict(json.loads(line))
