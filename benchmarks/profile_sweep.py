#!/usr/bin/env python
"""Profile the canonical 200-task sweep and emit every span artifact.

Runs the same 2-density x 5-probability x 20-replication grid the store
benchmarks use (cold, into a scratch store) with span profiling on, then
writes into ``--out``:

* ``spans.jsonl``      — the raw span stream (``SpanJsonlSink``),
* ``trace.json``       — Chrome trace-event JSON (``chrome://tracing``
  or https://ui.perfetto.dev),
* ``manifest.json``    — the sweep's provenance manifest,
* ``report.md``        — the fused ``repro-report`` output (also printed).

The script asserts the acceptance bar before exiting: the recorded
span tree must account for >=90% of the measured wall time, with store,
engine, runner and (cold) network phases attributed.  CI runs this and uploads
``trace.json`` as a workflow artifact, so every build leaves behind an
openable picture of where the sweep's seconds went.

Pass ``--warm`` to profile a warm-cache replay instead (the store is
populated unprofiled first) — the comparison walkthrough lives in
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.config import AnalysisConfig
from repro.obs import report as obs_report
from repro.obs import spans as obs_spans
from repro.obs.export import SpanJsonlSink, read_spans_jsonl, write_chrome_trace
from repro.sim.config import SimulationConfig
from repro.sim.runner import sweep_grid

CFG = SimulationConfig(analysis=AnalysisConfig(n_rings=4, rho=40))
RHOS = (30, 40)
PS = (0.1, 0.3, 0.5, 0.7, 0.9)
REPLICATIONS = 20  # 2 x 5 x 20 = 200 tasks
SEED = 20050113


def profile_sweep(out: Path, store: Path, *, warm: bool = False) -> int:
    """Run the profiled sweep; write artifacts into ``out``; return 0/1."""
    out.mkdir(parents=True, exist_ok=True)
    if warm:
        print("populating store (unprofiled cold pass)...", flush=True)
        sweep_grid(CFG, RHOS, PS, REPLICATIONS, seed=SEED, store=store)

    spans_path = out / "spans.jsonl"
    label = "warm" if warm else "cold"
    print(f"profiling {label} 200-task sweep...", flush=True)
    t0 = time.perf_counter()
    with obs_spans.capture_spans(SpanJsonlSink(spans_path)):
        grid = sweep_grid(
            CFG, RHOS, PS, REPLICATIONS, seed=SEED, store=store, manifest_dir=out
        )
    wall = time.perf_counter() - t0
    assert len(grid) == len(RHOS) * len(PS)

    recorded = list(read_spans_jsonl(spans_path))
    roots = [s for s in recorded if s.parent_id is None]
    coverage = sum(r.dur for r in roots) / wall if wall > 0 else 0.0
    cats = {s.cat for s in recorded}
    trace_path = write_chrome_trace(recorded, out / "trace.json")

    print(
        f"{len(recorded)} spans over {wall:.2f}s wall "
        f"({coverage:.1%} attributed); trace at {trace_path}"
    )

    report_text = obs_report.render_report(
        spans_path=spans_path,
        manifest_path=out / "manifest.json",
        markdown=True,
    )
    (out / "report.md").write_text(report_text + "\n")
    print()
    print(report_text)

    ok = True
    if coverage < 0.9:
        print(f"FAIL: span tree covers {coverage:.1%} of wall time (< 90%)")
        ok = False
    # A warm replay never reaches the engine or builds a topology (every
    # task is a cache hit).
    required = {"runner", "store"}
    if not warm:
        required |= {"engine", "network"}
    if not required <= cats:
        print(f"FAIL: missing span categories {sorted(required - cats)}")
        ok = False
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="profile-out",
        help="artifact directory (default: ./profile-out)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="result-store directory (default: a fresh temp dir = cold run)",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="populate the store first, then profile the warm replay",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.store is not None:
        return profile_sweep(out, Path(args.store), warm=args.warm)
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        return profile_sweep(out, Path(tmp) / "store", warm=args.warm)


if __name__ == "__main__":
    sys.exit(main())
