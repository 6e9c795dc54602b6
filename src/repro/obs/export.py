"""Span export: JSONL persistence and Chrome trace-event JSON.

Two wire formats for :class:`~repro.obs.spans.SpanEvent` streams:

* **JSONL** (:class:`SpanJsonlSink` / :func:`read_spans_jsonl`) — one
  span object per line, append-only, crash-tolerant; the round-trip
  format ``repro-report`` consumes.
* **Chrome trace-event JSON** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`) — a ``{"traceEvents": [...]}`` document of
  ``"ph": "X"`` complete events loadable in ``chrome://tracing`` or
  `Perfetto <https://ui.perfetto.dev>`_.  Timestamps and durations are
  microseconds relative to the profiler epoch; counters and span ids
  ride along in ``args`` so the tree survives viewers that re-derive
  nesting from timestamps alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.obs.spans import SpanEvent, span_from_dict, span_to_dict

__all__ = [
    "SpanJsonlSink",
    "read_spans_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]


class SpanJsonlSink:
    """Append closed spans to a JSON-lines file (one span per line)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None

    def emit(self, span: SpanEvent) -> None:
        if self._fh is None:
            self._fh = self.path.open("a")
        self._fh.write(json.dumps(span_to_dict(span)) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SpanJsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_spans_jsonl(path: str | Path) -> Iterator[SpanEvent]:
    """Iterate the spans of a :class:`SpanJsonlSink` file."""
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield span_from_dict(json.loads(line))


def to_chrome_trace(spans: Iterable[SpanEvent]) -> dict:
    """Render spans as a Chrome trace-event document (a JSON-safe dict).

    Every span becomes one ``"ph": "X"`` (complete) event; ``ts``/``dur``
    are integer microseconds.  Viewers nest events per ``(pid, tid)`` by
    timestamp containment, which matches the parent links of synchronous
    code; spans of coroutines interleaved on one thread can overlap
    there, and their ``parent_id`` args carry the true tree.
    """
    events: list[dict] = []
    for s in sorted(spans, key=lambda s: (s.start, s.span_id)):
        args: dict[str, object] = {"span_id": s.span_id}
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        args.update(s.counters)
        events.append(
            {
                "name": s.name,
                "cat": s.cat or "span",
                "ph": "X",
                "ts": round(s.start * 1e6),
                "dur": round(s.dur * 1e6),
                "pid": s.pid,
                "tid": s.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[SpanEvent], path: str | Path) -> Path:
    """Write :func:`to_chrome_trace` output to ``path``; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(to_chrome_trace(spans), indent=1) + "\n")
    return out
