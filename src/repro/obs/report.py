"""``repro-report``: one fused run report from the observability outputs.

Pulls together whichever artifacts a run produced — a span trace
(``--spans``), a provenance manifest (``--manifest``), a slot/store
event trace (``--trace``), the perf ledger (``--bench``), the perf
history (``--history``) — and renders a single terminal or Markdown
report:

* the span tree with wall/self time and root wall-clock coverage,
* top-N span names by aggregate self-time,
* the store hit/miss/put/corrupt breakdown (from spans or trace events),
* the optimizer's probe/verify steps,
* an event trace's phase table, busiest slots, and run totals recomputed
  from the slot-level events and checked against each ``RunComplete``,
* the manifest's provenance (git SHA, package versions, seed, config)
  and the per-``(rho, p)`` task table of a ``sweep_grid`` manifest,
* perf-vs-seed deltas from ``BENCH_perf.json``,
* the median trajectory from ``BENCH_history.jsonl`` as sparklines.

Sections for inputs not supplied are simply omitted; the CLI exits 0 on
success, 1 on an unreadable input, and 2 when a named input file is
missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.obs.events import (
    NodeInformed,
    PhaseComplete,
    RunComplete,
    SearchStep,
    SlotResolved,
    StoreAccess,
    TraceEvent,
)
from repro.obs.export import read_spans_jsonl
from repro.obs.provenance import load_manifest
from repro.obs.spans import SpanEvent
from repro.obs.trace import read_jsonl

__all__ = [
    "span_tree_lines",
    "self_times",
    "aggregate_spans",
    "render_spans",
    "render_store_breakdown",
    "render_search_steps",
    "render_task_table",
    "render_perf_deltas",
    "render_history",
    "render_report",
    "main",
]

_SPARK = "▁▂▃▄▅▆▇█"


def _fmt_s(seconds: float) -> str:
    """Seconds for humans: ms below 1 s, 3 significant digits above."""
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.3g}s"


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------
def self_times(spans: list[SpanEvent]) -> dict[int, float]:
    """Self time per span id: duration minus the sum of child durations.

    Clamped at zero — overlapping children (threads) cannot drive a
    parent's self time negative.
    """
    child_total: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_total[s.parent_id] = child_total.get(s.parent_id, 0.0) + s.dur
    return {s.span_id: max(0.0, s.dur - child_total.get(s.span_id, 0.0)) for s in spans}


def aggregate_spans(
    spans: list[SpanEvent],
) -> list[tuple[str, str, int, float, float]]:
    """Per-name rollup: ``(name, cat, count, total_dur, total_self)``,
    sorted by self time descending."""
    selfs = self_times(spans)
    agg: dict[str, tuple[str, int, float, float]] = {}
    for s in spans:
        cat, count, total, self_total = agg.get(s.name, (s.cat, 0, 0.0, 0.0))
        agg[s.name] = (cat, count + 1, total + s.dur, self_total + selfs[s.span_id])
    rows = [
        (name, cat, count, total, self_total)
        for name, (cat, count, total, self_total) in agg.items()
    ]
    rows.sort(key=lambda r: -r[4])
    return rows


def span_tree_lines(spans: list[SpanEvent], *, max_children: int = 12) -> list[str]:
    """Indented tree of the span forest, ordered by start time.

    Each line shows name, category, duration, self time, and the share
    of its root's duration.  Sibling lists longer than ``max_children``
    are elided with a count (profiled sweeps have hundreds of
    ``runner.block`` leaves; the aggregate table covers those).
    """
    selfs = self_times(spans)
    known = {s.span_id for s in spans}
    children: dict[int | None, list[SpanEvent]] = {}
    for s in spans:
        # A span whose parent never closed (it raised) renders as a root.
        parent = s.parent_id if s.parent_id in known else None
        children.setdefault(parent, []).append(s)
    for sibs in children.values():
        sibs.sort(key=lambda s: (s.start, s.span_id))

    lines: list[str] = []

    def walk(s: SpanEvent, depth: int, root_dur: float) -> None:
        share = 100.0 * s.dur / root_dur if root_dur > 0 else 0.0
        cat = f" [{s.cat}]" if s.cat else ""
        extra = ""
        if s.counters:
            shown = ", ".join(
                f"{k}={v:g}" for k, v in sorted(s.counters.items())
            )
            extra = f"  ({shown})"
        lines.append(
            f"{'  ' * depth}{s.name}{cat}: {_fmt_s(s.dur)} "
            f"(self {_fmt_s(selfs[s.span_id])}, {share:.1f}%){extra}"
        )
        kids = children.get(s.span_id, [])
        for kid in kids[:max_children]:
            walk(kid, depth + 1, root_dur)
        if len(kids) > max_children:
            elided = kids[max_children:]
            lines.append(
                f"{'  ' * (depth + 1)}… {len(elided)} more siblings "
                f"({_fmt_s(sum(k.dur for k in elided))})"
            )

    for root in children.get(None, []):
        walk(root, 0, root.dur)
    return lines


def render_spans(spans: list[SpanEvent], *, top: int = 10) -> str:
    """The span sections: tree, then the top-N self-time table."""
    if not spans:
        return "no spans recorded"
    lines = [f"span tree ({len(spans)} spans):"]
    lines.extend(span_tree_lines(spans))
    lines.append("")
    lines.append(f"top {top} span names by self time:")
    lines.append("  self      total     count  name")
    for name, cat, count, total, self_total in aggregate_spans(spans)[:top]:
        label = f"{name} [{cat}]" if cat else name
        lines.append(
            f"  {_fmt_s(self_total):>8}  {_fmt_s(total):>8}  {count:5d}  {label}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# store / search sections
# ----------------------------------------------------------------------
def render_store_breakdown(
    spans: list[SpanEvent], events: list[TraceEvent]
) -> str | None:
    """Hit/miss/put/corrupt breakdown from span counters or trace events.

    Trace events win when present (they carry byte totals); span
    counters on ``store.*`` spans cover runs traced with spans only.
    """
    ops = {"hit": 0, "miss": 0, "put": 0, "corrupt": 0}
    put_bytes = 0
    seen = False
    accesses = [e for e in events if isinstance(e, StoreAccess)]
    if accesses:
        seen = True
        for ev in accesses:
            ops[ev.op] = ops.get(ev.op, 0) + 1
            if ev.op == "put":
                put_bytes += ev.nbytes
    else:
        for s in spans:
            if not s.name.startswith("store."):
                continue
            if s.name == "store.put":
                seen = True
                ops["put"] += 1
                put_bytes += int(s.counters.get("nbytes", 0))
                continue
            for key, target in (
                ("hits", "hit"),
                ("misses", "miss"),
                ("corrupt", "corrupt"),
            ):
                if key in s.counters:
                    seen = True
                    ops[target] += int(s.counters[key])
    if not seen:
        return None
    total = ops["hit"] + ops["miss"]
    rate = f" ({100.0 * ops['hit'] / total:.1f}% hit)" if total else ""
    lines = [
        "store accesses:",
        f"  hits     {ops['hit']:8d}{rate}",
        f"  misses   {ops['miss']:8d}",
        f"  puts     {ops['put']:8d}"
        + (f" ({put_bytes} bytes)" if put_bytes else ""),
        f"  corrupt  {ops['corrupt']:8d}",
    ]
    return "\n".join(lines)


def render_search_steps(events: list[TraceEvent], *, max_rows: int = 20) -> str | None:
    """The optimizer's probe/verify ladder walk, as a table."""
    steps = [e for e in events if isinstance(e, SearchStep)]
    if not steps:
        return None
    probes = sum(1 for s in steps if s.stage == "probe")
    verifies = len(steps) - probes
    lines = [
        f"search steps: {probes} surrogate probes, {verifies} MC verifications",
        "  stage    rung       p  feasible     value",
    ]
    shown = steps[:max_rows]
    for s in shown:
        value = "nan" if s.value != s.value else f"{s.value:.4f}"
        lines.append(
            f"  {s.stage:<7} {s.rung:5d}  {s.p:.4f}  {str(s.feasible):<8}  {value:>8}"
        )
    if len(steps) > max_rows:
        lines.append(f"  … {len(steps) - max_rows} more steps")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# event-trace section
# ----------------------------------------------------------------------
def _render_trace(events: list[TraceEvent], *, max_slots: int) -> str | None:
    """Phase table, busiest slots, and run totals of a slot-level trace.

    The totals are recomputed from the ``SlotResolved`` and
    ``NodeInformed`` events and checked against the ``RunComplete``
    records, so the section doubles as a check that the trace is
    faithful to the results the engine returned.  Collisions are shown
    but not checked: the DES engine's ``RunComplete`` counts corrupted
    receptions, while every ``SlotResolved`` counts receivers.
    """
    slots = [e for e in events if isinstance(e, SlotResolved)]
    phases = [e for e in events if isinstance(e, PhaseComplete)]
    runs = [e for e in events if isinstance(e, RunComplete)]
    n_informed = sum(1 for e in events if isinstance(e, NodeInformed))
    if not (slots or phases or runs or n_informed):
        return None
    lines = [f"{len(events)} events"]
    if phases:
        lines += ["", "phase   tx    new  informed"]
        lines += [
            f"{ph.phase:5d} {ph.n_tx:5d} {ph.n_new:6d} {ph.informed_total:9d}"
            for ph in phases
        ]
    if slots:
        busiest = sorted(slots, key=lambda e: -e.n_collisions)[:max_slots]
        lines += [
            "",
            f"slot timeline ({len(busiest)} of {len(slots)} active slots, "
            "busiest by collisions):",
            " slot phase   tx   rx  coll",
        ]
        lines += [
            f"{ev.slot:5d} {ev.phase:5d} {ev.n_tx:4d} {ev.n_rx:4d} "
            f"{ev.n_collisions:5d}"
            for ev in sorted(busiest, key=lambda e: e.slot)
        ]
    lines += [
        "",
        "total collisions (from SlotResolved): "
        f"{sum(e.n_collisions for e in slots)}",
        f"nodes informed   (from NodeInformed): {n_informed}",
    ]
    if not runs:
        lines.append("no RunComplete event (truncated trace?)")
        return "\n".join(lines)
    lines += [
        f"run complete: phases={run.phases} slots={run.slots} "
        f"collisions={run.collisions} reachability={run.reachability:.4f} "
        f"tx={run.total_tx} rx={run.total_rx}"
        for run in runs
    ]
    checks = (
        ("transmissions", sum(e.n_tx for e in slots), sum(r.total_tx for r in runs)),
        ("receptions", sum(e.n_rx for e in slots), sum(r.total_rx for r in runs)),
        (
            "nodes informed",
            n_informed,
            sum(round(r.reachability * r.n_field_nodes) for r in runs),
        ),
    )
    for what, recomputed, reported in checks:
        if recomputed != reported:
            lines.append(
                f"WARNING: {what} recomputed from the events disagree with "
                f"RunComplete ({recomputed} vs {reported}) — truncated trace?"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# manifest / perf sections
# ----------------------------------------------------------------------
def render_task_table(manifest: dict) -> str:
    """Manifest summary; ``sweep_grid`` manifests get a (rho, p) table."""
    lines = [f"run: kind={manifest.get('kind')}"]
    git = manifest.get("git") or {}
    if git.get("sha"):
        lines.append(
            f"git: {git['sha'][:12]}" + (" (dirty)" if git.get("dirty") else "")
        )
    versions = manifest.get("versions")
    if versions:
        lines.append(
            "versions: "
            + ", ".join(f"{k}={v}" for k, v in sorted(versions.items()))
        )
    seed = manifest.get("seed")
    if seed is not None:
        lines.append(f"seed entropy: {seed.get('entropy')}")
    if "wall_time_s" in manifest:
        lines.append(
            f"wall {manifest['wall_time_s']:.3f}s, "
            f"cpu {manifest.get('cpu_time_s', 0.0):.3f}s"
        )
    params = manifest.get("params") or {}
    rhos = params.get("rho_grid")
    ps = params.get("p_grid")
    reps = params.get("replications")
    if rhos and ps and reps:
        lines.append(
            f"task grid: {len(rhos)} rho x {len(ps)} p x {reps} replications "
            f"= {params.get('n_runs', len(rhos) * len(ps) * reps)} tasks"
        )
        header = "  rho \\ p " + "".join(f"{p:>8.3g}" for p in ps)
        lines.append(header)
        for rho in rhos:
            lines.append(f"  {rho:7.3g} " + "".join(f"{reps:>8d}" for _ in ps))
    if "config" in manifest:
        lines.append(f"config ({manifest.get('config_class')}):")
        config = json.dumps(manifest["config"], indent=2, sort_keys=True)
        lines.extend(f"  {line}" for line in config.splitlines())
    return "\n".join(lines)


def _resolve_seed(value: object, current: dict[str, float]) -> float | None:
    """A seed entry as a number: absolute, or ``baseline:<key>`` alias."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and value.startswith("baseline:"):
        return current.get(value[len("baseline:"):])
    return None


def render_perf_deltas(bench: dict) -> str | None:
    """Current-vs-seed medians for every guarded benchmark."""
    current = bench.get("current") or {}
    seeds = bench.get("seed") or {}
    if not current or not seeds:
        return None
    lines = ["perf vs seed (negative = faster than baseline):"]
    lines.append("   current      seed    delta  benchmark")
    for key in sorted(seeds):
        cur = current.get(key)
        base = _resolve_seed(seeds[key], current)
        if cur is None or base is None or base == 0:
            continue
        delta = 100.0 * (cur - base) / base
        name = key.rsplit("::", 1)[-1]
        lines.append(
            f"  {_fmt_s(cur):>8}  {_fmt_s(base):>8}  {delta:+6.1f}%  {name}"
        )
    return "\n".join(lines) if len(lines) > 2 else None


def _sparkline(values: list[float]) -> str:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / (hi - lo) * len(_SPARK)))]
        for v in values
    )


def render_history(path: str | Path, *, last: int = 20) -> str | None:
    """The ``BENCH_history.jsonl`` trajectory as per-benchmark sparklines."""
    entries: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    if not entries:
        return None
    entries = entries[-last:]
    first_sha = entries[0].get("sha") or "?"
    last_sha = entries[-1].get("sha") or "?"
    lines = [
        f"perf history: {len(entries)} runs "
        f"({str(first_sha)[:8]} → {str(last_sha)[:8]}), newest right:"
    ]
    keys = sorted(entries[-1].get("medians", {}))
    for key in keys:
        series = [
            float(e["medians"][key])
            for e in entries
            if key in e.get("medians", {})
        ]
        if not series:
            continue
        name = key.rsplit("::", 1)[-1]
        lines.append(f"  {_sparkline(series)}  {_fmt_s(series[-1]):>8}  {name}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the fused report
# ----------------------------------------------------------------------
def render_report(
    *,
    spans_path: str | Path | None = None,
    manifest_path: str | Path | None = None,
    trace_path: str | Path | None = None,
    bench_path: str | Path | None = None,
    history_path: str | Path | None = None,
    top: int = 10,
    max_slots: int = 40,
    markdown: bool = False,
) -> str:
    """The full report text for whichever inputs are provided."""
    spans = list(read_spans_jsonl(spans_path)) if spans_path is not None else []
    events = list(read_jsonl(trace_path)) if trace_path is not None else []

    sections: list[tuple[str, str]] = []
    if manifest_path is not None:
        sections.append(("Run", render_task_table(load_manifest(manifest_path))))
    if spans_path is not None:
        sections.append(("Wall-time attribution", render_spans(spans, top=top)))
    store = render_store_breakdown(spans, events)
    if store is not None:
        sections.append(("Store", store))
    search = render_search_steps(events)
    if search is not None:
        sections.append(("Optimizer", search))
    trace = _render_trace(events, max_slots=max_slots)
    if trace is not None:
        sections.append(("Trace", trace))
    if bench_path is not None:
        bench = json.loads(Path(bench_path).read_text())
        deltas = render_perf_deltas(bench)
        if deltas is not None:
            sections.append(("Benchmarks", deltas))
    if history_path is not None:
        history = render_history(history_path)
        if history is not None:
            sections.append(("Perf trajectory", history))

    if not sections:
        return "nothing to report (no inputs produced a section)"
    parts: list[str] = []
    for title, body in sections:
        if markdown:
            parts.append(f"## {title}\n\n```\n{body}\n```")
        else:
            parts.append(f"=== {title} ===\n{body}")
    return "\n\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=(
            "Fuse a span trace, provenance manifest, event trace, and perf "
            "ledger into one run report."
        ),
    )
    parser.add_argument("--spans", metavar="JSONL", help="span trace (SpanJsonlSink)")
    parser.add_argument(
        "--manifest", metavar="JSON", help="provenance manifest file or directory"
    )
    parser.add_argument("--trace", metavar="JSONL", help="event trace (JsonlSink)")
    parser.add_argument(
        "--bench", metavar="JSON", help="BENCH_perf.json for perf-vs-seed deltas"
    )
    parser.add_argument(
        "--history", metavar="JSONL", help="BENCH_history.jsonl for the trajectory"
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N", help="self-time table rows"
    )
    parser.add_argument(
        "--max-slots",
        type=int,
        default=40,
        metavar="N",
        help="cap for the trace's slot-timeline rows (default 40)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown sections"
    )
    args = parser.parse_args(argv)

    inputs = {
        "spans": args.spans,
        "manifest": args.manifest,
        "trace": args.trace,
        "bench": args.bench,
        "history": args.history,
    }
    if all(v is None for v in inputs.values()):
        parser.print_usage(sys.stderr)
        print("repro-report: provide at least one input", file=sys.stderr)
        return 2
    for label, value in inputs.items():
        if value is not None and not Path(value).exists():
            print(f"repro-report: no such {label} file: {value}", file=sys.stderr)
            return 2

    try:
        print(
            render_report(
                spans_path=args.spans,
                manifest_path=args.manifest,
                trace_path=args.trace,
                bench_path=args.bench,
                history_path=args.history,
                top=args.top,
                max_slots=args.max_slots,
                markdown=args.markdown,
            )
        )
    except ValueError as exc:
        print(f"repro-report: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
