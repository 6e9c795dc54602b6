"""Structured run telemetry: spans, events, provenance, progress.

The observability layer for the simulation stack (see DESIGN.md,
"Observability") has one counter path, one semantic stream and one
report:

* :mod:`repro.obs.spans` — hierarchical wall-time spans attributing a
  whole pipeline invocation (runner → store → engine → optimize); every
  count a layer reports (runs, slots, collisions, store hits, probes)
  rides on its span as a counter.  Zero overhead when no sink is
  attached.
* :mod:`repro.obs.trace` — slot-level event tracing with pluggable
  sinks; zero overhead when no sink is attached.
* :mod:`repro.obs.provenance` — manifests recording seed entropy,
  config, git SHA and environment next to experiment outputs, with
  helpers to reconstruct the run from a loaded manifest.
* :mod:`repro.obs.progress` — stderr progress/ETA reporting for sweeps
  and the figure battery.
* :mod:`repro.obs.export` — span persistence: JSONL and Chrome
  trace-event JSON (``chrome://tracing``/Perfetto).
* :mod:`repro.obs.report` — the ``repro-report`` CLI fusing manifest,
  span trace, event trace, and perf ledger into one run report.  It is
  imported on demand (``from repro.obs import report``), so ``python -m
  repro.obs.report`` runs the module once.

A region's counters are :func:`capture_spans` plus a sum over
``buf.named(name)``.
"""

from repro.obs import export, progress, provenance, spans, trace
from repro.obs.events import (
    ChannelDelivery,
    NodeInformed,
    PhaseComplete,
    RunComplete,
    SearchStep,
    SlotResolved,
    StoreAccess,
)
from repro.obs.provenance import (
    config_from_manifest,
    load_manifest,
    seed_from_manifest,
    write_manifest,
)
from repro.obs.spans import SpanBuffer, capture_spans, profiler
from repro.obs.trace import JsonlSink, NullSink, RingBufferSink, capture, get_tracer

__all__ = [
    "trace",
    "provenance",
    "progress",
    "spans",
    "export",
    "SpanBuffer",
    "capture_spans",
    "profiler",
    "SlotResolved",
    "NodeInformed",
    "PhaseComplete",
    "RunComplete",
    "ChannelDelivery",
    "StoreAccess",
    "SearchStep",
    "capture",
    "get_tracer",
    "RingBufferSink",
    "JsonlSink",
    "NullSink",
    "write_manifest",
    "load_manifest",
    "config_from_manifest",
    "seed_from_manifest",
]
