"""Hierarchical wall-time spans: where did this sweep's seconds go?

Slot-level tracing (:mod:`repro.obs.trace`) answers "what happened
*inside* a simulation run"; spans answer "where did the *wall time* of a
whole pipeline invocation go" — runner → store → engine → optimize.  A
span is one timed region with a name, a category, a parent link (spans
nest per thread and per asyncio task), and optional counters (cache
hits, slots advanced, bytes written) attached when it closes.

Design constraints, mirroring the tracer:

1. **Zero overhead when disabled.**  Instrumented code hoists one guard
   per function call::

       prof = spans.profiler()
       begin = prof.begin if prof.enabled else None
       ...
       h = begin("engine.slot_loop", "engine") if begin is not None else None
       ...work...
       if h is not None:
           h.end(slots=n_slots)

   With no sink attached the cost per call site is a single attribute
   read plus an ``is not None`` test — no objects, no clock reads.  The
   ``obs-neutrality`` lint rule enforces the discipline: a direct
   ``prof.begin(...)``/``prof.end(...)`` attribute call outside
   :mod:`repro.obs` is a finding.
2. **Thread- and process-safe identity.**  Span ids are allocated under
   a lock; the parent stack is a context variable, so it is per thread
   and per asyncio task (coroutines gathered on one event loop each
   nest under the span open where they were created); every emitted
   :class:`SpanEvent` carries ``pid``/``tid``, so merged traces from
   several threads (or JSONL files from several processes) stay
   attributable.  A pooled sweep is traced whole: a pool worker never
   writes into the sinks it inherited through fork; it captures its
   block's spans and sends them home with the block's results, and the
   parent re-emits them through :meth:`SpanProfiler.adopt` (fresh ids,
   parent links intact, the block under the round's ``store.execute``,
   the worker's ``pid``/``tid`` kept).  A worker's spans arrive when
   its block completes, so a pooled trace's sinks see blocks in
   completion order (the Chrome export sorts by start time).
3. **Emit-on-close.**  A span is delivered to the sinks when it ends,
   so a region that raises simply never reports (and any still-open
   children are discarded from the stack, keeping later parent links
   sane).  Exports order by start time, which restores the tree.

For cool paths (CLIs, scripts, tests) the module-level :func:`span`
context manager and :func:`traced` decorator wrap the same machinery
behind an internal enabled check.

Export lives in :mod:`repro.obs.export` (Chrome trace-event JSON and
JSONL); :mod:`repro.obs.report` renders fused run reports.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, ParamSpec, Protocol, Sequence, TypeVar

__all__ = [
    "SpanEvent",
    "Span",
    "SpanSink",
    "SpanBuffer",
    "SpanProfiler",
    "profiler",
    "capture_spans",
    "span",
    "traced",
    "span_to_dict",
    "span_from_dict",
]

_P = ParamSpec("_P")
_R = TypeVar("_R")


@dataclass(frozen=True)
class SpanEvent:
    """One completed timed region.

    Attributes
    ----------
    name:
        Dotted region name (``"sweep.grid"``, ``"engine.slot_loop"``).
    cat:
        Coarse layer for grouping/coloring: ``"runner"``, ``"store"``,
        ``"engine"``, ``"optimize"`` (free-form).
    start:
        Seconds since the profiler's epoch (a ``perf_counter`` origin
        fixed at profiler creation — monotonic, not wall-clock).
    dur:
        Wall seconds the region took.
    span_id, parent_id:
        Process-unique id and the id of the enclosing span on the same
        thread (``None`` for roots); a span adopted from a pool worker
        (:meth:`SpanProfiler.adopt`) nests under the adopting thread's
        open span.
    pid, tid:
        Operating-system process id and Python thread id.
    counters:
        Values attached at close: cache hits, slots advanced, bytes.
    """

    name: str
    cat: str
    start: float
    dur: float
    span_id: int
    parent_id: int | None
    pid: int
    tid: int
    counters: dict[str, float] = field(default_factory=dict)


class SpanSink(Protocol):
    """Anything with an ``emit(span)`` method can receive closed spans."""

    def emit(self, span: SpanEvent) -> None: ...


class Span:
    """An open span handle returned by :meth:`SpanProfiler.begin`.

    The handle exists only on the enabled path (callers guard the
    hoisted ``begin`` with ``is not None``), so ``h.end(...)`` never
    runs work when profiling is off.
    """

    __slots__ = ("_profiler", "name", "cat", "span_id", "parent_id", "_t0", "counters")

    def __init__(
        self,
        profiler: "SpanProfiler",
        name: str,
        cat: str,
        span_id: int,
        parent_id: int | None,
        t0: float,
    ) -> None:
        self._profiler = profiler
        self.name = name
        self.cat = cat
        self.span_id = span_id
        self.parent_id = parent_id
        self._t0 = t0
        self.counters: dict[str, float] = {}

    def add(self, **counters: float) -> None:
        """Accumulate counter values while the span is open."""
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def end(self, **counters: float) -> SpanEvent:
        """Close the span: merge ``counters``, emit, return the event."""
        return self._profiler._finish(self, counters)


class SpanBuffer:
    """Keep every closed span in memory, in completion order."""

    def __init__(self) -> None:
        self._spans: list[SpanEvent] = []

    def emit(self, span: SpanEvent) -> None:
        self._spans.append(span)

    @property
    def spans(self) -> list[SpanEvent]:
        """The buffered spans, in completion (close) order."""
        return list(self._spans)

    def named(self, name: str) -> list[SpanEvent]:
        """Buffered spans with one name, in completion order."""
        return [s for s in self._spans if s.name == name]

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


class SpanProfiler:
    """Fan-out point for span events, with pluggable sinks.

    Hot-path contract: reading :attr:`enabled` is one attribute access;
    :meth:`begin`/:meth:`Span.end` run only when a sink is attached.
    """

    def __init__(self) -> None:
        self._sinks: list[SpanSink] = []
        self.enabled = False
        self._lock = threading.Lock()
        self._next_id = 1
        # Open spans, innermost last; per thread and per asyncio task.
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar(
            "repro_open_spans", default=()
        )
        #: The ``perf_counter`` origin of every span's ``start``.
        self.epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # sink management (mirrors the tracer)
    # ------------------------------------------------------------------
    def attach(self, sink: SpanSink) -> None:
        """Add a sink (idempotent)."""
        if sink not in self._sinks:
            self._sinks.append(sink)
        self.enabled = True

    def detach(self, sink: SpanSink) -> None:
        """Remove a sink; unknown sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self.enabled = bool(self._sinks)

    @property
    def sinks(self) -> tuple[SpanSink, ...]:
        return tuple(self._sinks)

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "") -> Span:
        """Open a span as a child of this context's innermost open span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack.get()
        parent_id = stack[-1].span_id if stack else None
        handle = Span(self, name, cat, span_id, parent_id, time.perf_counter())
        self._stack.set((*stack, handle))
        return handle

    def end(self, handle: Span, **counters: float) -> SpanEvent:
        """Close ``handle`` (equivalent to ``handle.end(**counters)``)."""
        return self._finish(handle, counters)

    def _finish(self, handle: Span, counters: dict[str, float]) -> SpanEvent:
        dur = time.perf_counter() - handle._t0
        stack = self._stack.get()
        if handle in stack:
            # Drop any abandoned (never-ended) children too, so later
            # spans do not parent onto a dead handle.
            self._stack.set(stack[: stack.index(handle)])
        merged = handle.counters
        for key, value in counters.items():
            merged[key] = merged.get(key, 0.0) + float(value)
        event = SpanEvent(
            name=handle.name,
            cat=handle.cat,
            start=handle._t0 - self.epoch,
            dur=dur,
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            pid=os.getpid(),
            tid=threading.get_ident(),
            counters=dict(merged),
        )
        for sink in self._sinks:
            sink.emit(event)
        return event

    def adopt(self, spans: Sequence[SpanEvent], epoch: float) -> None:
        """Emit spans another process recorded, as if opened here.

        ``spans`` are one capture in close order (a pool worker's
        block), timed from ``epoch``, that process's :attr:`epoch`.
        Each span gets a fresh id from this profiler and keeps its
        links within the capture; a span whose parent is not in the
        capture (the block's ``runner.block``) is parented under this
        context's innermost open span.  Start times move onto this
        profiler's clock: ``perf_counter`` is one monotonic clock for
        every process of a host.  ``pid``/``tid`` stay the recording
        process's, so a Chrome trace shows one lane per worker.
        """
        with self._lock:
            first = self._next_id
            self._next_id += len(spans)
        ids = {s.span_id: first + k for k, s in enumerate(spans)}
        stack = self._stack.get()
        outer = stack[-1].span_id if stack else None
        shift = epoch - self.epoch
        for s in spans:
            parent = s.parent_id
            event = replace(
                s,
                span_id=ids[s.span_id],
                parent_id=outer if parent is None else ids.get(parent, outer),
                start=s.start + shift,
            )
            for sink in self._sinks:
                sink.emit(event)


_PROFILER = SpanProfiler()


def profiler() -> SpanProfiler:
    """The process-global profiler instrumented code consults."""
    return _PROFILER


@contextmanager
def capture_spans(sink: SpanSink | None = None) -> Iterator[SpanSink]:
    """Attach ``sink`` (default: a fresh :class:`SpanBuffer`) for a block.

    Yields the sink; on exit it is detached and, if it has a ``close``
    method (e.g. :class:`~repro.obs.export.SpanJsonlSink`), closed.

    >>> from repro.obs import spans
    >>> with spans.capture_spans() as buf:          # doctest: +SKIP
    ...     sweep_grid(cfg, rhos, ps, 30, seed=0)
    >>> buf.named("sweep.grid")[0].dur              # doctest: +SKIP
    """
    if sink is None:
        sink = SpanBuffer()
    _PROFILER.attach(sink)
    try:
        yield sink
    finally:
        _PROFILER.detach(sink)
        close = getattr(sink, "close", None)
        if close is not None:
            close()


@contextmanager
def span(name: str, cat: str = "") -> Iterator[Span | None]:
    """Context-manager convenience for cool paths (CLIs, scripts).

    Yields the open :class:`Span` (or ``None`` when profiling is
    disabled — the disabled cost is one attribute read).  Hot paths use
    the hoisted ``begin``/``is not None`` discipline instead.
    """
    if not _PROFILER.enabled:
        yield None
        return
    handle = _PROFILER.begin(name, cat)
    try:
        yield handle
    finally:
        handle.end()


def traced(
    name: str | None = None, cat: str = ""
) -> Callable[[Callable[_P, _R]], Callable[_P, _R]]:
    """Decorator form of :func:`span` for cool-path functions.

    ``name`` defaults to the function's qualified name.  When profiling
    is disabled the wrapper adds one attribute read and a call frame.
    """

    def decorate(fn: Callable[_P, _R]) -> Callable[_P, _R]:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: _P.args, **kwargs: _P.kwargs) -> _R:
            if not _PROFILER.enabled:
                return fn(*args, **kwargs)
            handle = _PROFILER.begin(label, cat)
            try:
                return fn(*args, **kwargs)
            finally:
                handle.end()

        return wrapper

    return decorate


def span_to_dict(event: SpanEvent) -> dict:
    """The JSONL wire form of one span (plain JSON-safe dict)."""
    return {
        "name": event.name,
        "cat": event.cat,
        "start": event.start,
        "dur": event.dur,
        "span_id": event.span_id,
        "parent_id": event.parent_id,
        "pid": event.pid,
        "tid": event.tid,
        "counters": dict(event.counters),
    }


def span_from_dict(d: dict) -> SpanEvent:
    """Rebuild a :class:`SpanEvent` from :func:`span_to_dict` output."""
    parent = d.get("parent_id")
    return SpanEvent(
        name=str(d["name"]),
        cat=str(d.get("cat", "")),
        start=float(d["start"]),
        dur=float(d["dur"]),
        span_id=int(d["span_id"]),
        parent_id=None if parent is None else int(parent),
        pid=int(d.get("pid", 0)),
        tid=int(d.get("tid", 0)),
        counters={str(k): float(v) for k, v in (d.get("counters") or {}).items()},
    )
