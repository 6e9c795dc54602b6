"""The event-loop core of the DES kernel."""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.des.events import Event, EventHandle
from repro.errors import SimulationError

__all__ = ["Simulator"]


class Simulator:
    """A deterministic discrete-event simulator.

    Events run in ``(time, priority, insertion)`` order; scheduling into
    the past raises.  The loop is re-entrant with respect to
    scheduling — callbacks routinely schedule more events — but not with
    respect to :meth:`run` itself.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> _ = sim.schedule(2.0, log.append, "b")
    >>> _ = sim.schedule(1.0, log.append, "a")
    >>> sim.run()
    >>> log
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        self._running = False

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events."""
        return len(self._heap)

    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute time."""
        if time < self._now or math.isnan(time):
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        event = Event(time=float(time), priority=priority, seq=self._seq, callback=callback, args=args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def process(self, generator) -> "EventHandle":
        """Adopt a generator-based process (see :mod:`repro.des.process`)."""
        from repro.des.process import Process

        proc = Process(self, generator)
        return proc.start()

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next non-cancelled event; False when none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time < self._now:  # pragma: no cover - heap invariant
                raise SimulationError("event heap returned a past event")
            self._now = event.time
            event.callback(*event.args)
            return True
        return False

    def run(self, until: float | None = None, *, max_events: int | None = None) -> None:
        """Run until the heap empties, ``until`` is passed, or the budget hits.

        Parameters
        ----------
        until:
            Stop *before* executing events later than this time; the
            clock then advances exactly to ``until``.
        max_events:
            Safety valve for runaway models; raises
            :class:`~repro.errors.SimulationError` when exceeded.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                nxt = self._heap[0]
                if nxt.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and nxt.time > until:
                    break
                if not self.step():  # pragma: no cover - guarded by loop cond
                    break
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway model?"
                    )
            if until is not None and self._now < until:
                self._now = float(until)
        finally:
            self._running = False
