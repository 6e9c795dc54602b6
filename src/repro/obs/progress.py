"""Progress reporting for long-running sweeps and figure batteries.

Lines go to *stderr* so they compose with result output on stdout.  Two
shapes:

* :class:`SweepProgress` — a callback for
  :func:`repro.store.scheduler.run_tasks`'s ``progress`` hook.  It
  aggregates completed :class:`~repro.sim.results.RunResult` chunks into
  rate / ETA / collision lines, throttled so a million tiny tasks don't
  melt the terminal.
* :func:`stage` — a one-liner for coarse multi-stage drivers (the
  ``repro-figures`` battery): ``[3/17] fig5a ... done in 2.1s``.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Sequence

__all__ = ["SweepProgress", "stage"]


def _fmt_seconds(s: float) -> str:
    if s >= 3600:
        return f"{s / 3600:.1f}h"
    if s >= 60:
        return f"{s / 60:.1f}m"
    return f"{s:.1f}s"


class SweepProgress:
    """Accumulate task completions into periodic ETA lines.

    Parameters
    ----------
    total:
        Total number of tasks the sweep will run.
    label:
        Prefix for every line (e.g. ``"sweep 7x20x30"``).
    min_interval:
        Minimum seconds between lines (the final line always prints).
    stream:
        Defaults to ``sys.stderr``.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        *,
        min_interval: float = 0.5,
        stream: IO[str] | None = None,
    ) -> None:
        self.total = total
        self.label = label
        self.min_interval = min_interval
        self.stream = stream if stream is not None else sys.stderr
        self._t0 = time.perf_counter()
        self._last_print = 0.0
        self._done = 0
        self._collisions = 0
        self._reach_sum = 0.0
        self._runs = 0

    def update(self, done: int, total: int, results: Sequence) -> None:
        """``run_tasks`` progress hook: one call per completed chunk."""
        self._done = done
        self.total = total
        for r in results:
            collisions = getattr(r, "collisions", None)
            if collisions is not None:
                self._collisions += collisions
                self._runs += 1
                self._reach_sum += getattr(r, "reachability", 0.0)
        now = time.perf_counter()
        if done < total and (now - self._last_print) < self.min_interval:
            return
        self._last_print = now
        self._print(now)

    def _print(self, now: float) -> None:
        elapsed = max(now - self._t0, 1e-9)
        rate = self._done / elapsed
        eta = (self.total - self._done) / rate if rate > 0 else float("inf")
        parts = [
            f"[{self.label}] {self._done}/{self.total} runs"
            f" ({100.0 * self._done / max(self.total, 1):.0f}%)",
            f"{rate:.1f} runs/s",
            f"eta {_fmt_seconds(eta)}",
        ]
        if self._runs:
            parts.append(f"collisions/run {self._collisions / self._runs:.1f}")
            parts.append(f"mean reach {self._reach_sum / self._runs:.3f}")
        print(" | ".join(parts), file=self.stream, flush=True)


def stage(
    index: int,
    total: int,
    name: str,
    *,
    elapsed: float | None = None,
    error: str | None = None,
    stream: IO[str] | None = None,
) -> None:
    """One battery-stage line: start, completion, or failure.

    Call with neither ``elapsed`` nor ``error`` when the stage starts,
    with ``elapsed`` when it finishes, with ``error`` when it raises.
    """
    out = stream if stream is not None else sys.stderr
    prefix = f"[{index}/{total}] {name}"
    if error is not None:
        print(f"{prefix} FAILED: {error}", file=out, flush=True)
    elif elapsed is not None:
        print(f"{prefix} done in {_fmt_seconds(elapsed)}", file=out, flush=True)
    else:
        print(f"{prefix} ...", file=out, flush=True)
