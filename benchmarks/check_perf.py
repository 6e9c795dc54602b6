#!/usr/bin/env python
"""CI guard: fail when a tracked benchmark median regresses past tolerance.

Reads ``BENCH_perf.json`` and compares each key of its ``seed`` section
against the same key in ``current`` (the medians the benchmark run just
merged via ``--perf-json``).  Two baseline forms are supported:

* a number — an absolute pre-optimization median, recorded only where
  the optimized path has enough headroom that machine-to-machine
  variance cannot produce false failures;
* ``"baseline:<other-key>"`` — resolves to the *same run's* current
  median of ``<other-key>``, guarding a relative claim (e.g. the
  replication-batched engine must stay faster than the per-run loop,
  the frontier search faster than the dense grid) independent of the
  machine.

A tracked key missing from ``current`` fails the guard: silently
dropping a benchmark is how regressions hide.

Tolerance: ``--tolerance`` or the ``REPRO_PERF_TOLERANCE`` environment
variable (default 0.25 = current may exceed baseline by 25%).

History: ``--append-history`` additionally appends one JSONL record —
``{"unix": ..., "sha": ..., "medians": {...current...}}`` — to
``BENCH_history.jsonl`` (or ``--history-path``), building the perf
trajectory that ``repro-report --history`` renders as sparklines.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
ALIAS_PREFIX = "baseline:"

#: Absolute wall-time budgets (seconds), enforced with NO tolerance:
#: these guard "stays in the edit loop" claims rather than relative
#: regressions.  The budgets are set with generous headroom over
#: current medians, so machine variance cannot trip them.
HARD_LIMITS: dict[str, float] = {
    # Whole-program lint pass (warm fact cache) over src/: must stay
    # cheap enough to run as a pre-commit habit.
    "benchmarks/bench_perf_lint.py::test_analyzer_warm_cache_src": 5.0,
    # Warm serve queries answer from the read-through memory tier; the
    # single-digit-millisecond budget is the serving-tier claim
    # (``repro-serve --bench`` merges this key).
    "serve.bench.warm_p50_s": 0.005,
}

#: Lower bounds (dimensionless ratios, NOT seconds), enforced with no
#: tolerance: these guard "the mechanism engages at all" claims.  A
#: tracked key missing from ``current`` fails, same as HARD_LIMITS.
HARD_FLOORS: dict[str, float] = {
    # The benchmark workload holds duplicate queries in flight
    # together; if single-flight coalescing stops engaging, the ratio
    # collapses to 1.0.
    "serve.bench.cold_coalescing_ratio": 1.5,
}


def check(data: dict, tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = guard passes)."""
    current = data.get("current", {})
    seed = data.get("seed", {})
    failures: list[str] = []
    for key, baseline in sorted(seed.items()):
        cur = current.get(key)
        if cur is None:
            failures.append(f"{key}: tracked in 'seed' but absent from 'current'")
            continue
        if isinstance(baseline, str):
            if not baseline.startswith(ALIAS_PREFIX):
                failures.append(f"{key}: malformed baseline spec {baseline!r}")
                continue
            ref = baseline[len(ALIAS_PREFIX) :]
            base = current.get(ref)
            if base is None:
                failures.append(
                    f"{key}: baseline alias {ref!r} absent from 'current'"
                )
                continue
            label = f"alias {ref.split('::')[-1]}"
        else:
            base = float(baseline)
            label = "absolute"
        limit = base * (1.0 + tolerance)
        ok = cur <= limit
        print(
            f"{'ok  ' if ok else 'FAIL'} {key}\n"
            f"     current {cur:.6g}s vs {label} baseline {base:.6g}s "
            f"(limit {limit:.6g}s)"
        )
        if not ok:
            failures.append(
                f"{key}: median {cur:.6g}s exceeds {label} baseline "
                f"{base:.6g}s by more than {tolerance:.0%}"
            )
    for key, limit in sorted(HARD_LIMITS.items()):
        cur = current.get(key)
        if cur is None:
            failures.append(
                f"{key}: tracked in HARD_LIMITS but absent from 'current'"
            )
            continue
        ok = cur <= limit
        print(
            f"{'ok  ' if ok else 'FAIL'} {key}\n"
            f"     current {cur:.6g}s vs hard limit {limit:.6g}s"
        )
        if not ok:
            failures.append(
                f"{key}: median {cur:.6g}s exceeds the absolute budget "
                f"{limit:.6g}s"
            )
    for key, floor in sorted(HARD_FLOORS.items()):
        cur = current.get(key)
        if cur is None:
            failures.append(
                f"{key}: tracked in HARD_FLOORS but absent from 'current'"
            )
            continue
        ok = cur >= floor
        print(
            f"{'ok  ' if ok else 'FAIL'} {key}\n"
            f"     current {cur:.6g} vs hard floor {floor:.6g}"
        )
        if not ok:
            failures.append(
                f"{key}: value {cur:.6g} fell below the floor {floor:.6g}"
            )
    return failures


def git_sha() -> str | None:
    """HEAD commit of the working tree, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def append_history(data: dict, path: Path) -> dict:
    """Append this run's medians (+ SHA, timestamp) to the history file."""
    entry = {
        "unix": time.time(),
        "sha": git_sha(),
        "medians": dict(data.get("current", {})),
    }
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--path", default=str(DEFAULT_PATH), help="BENCH_perf.json location"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed relative regression (default: REPRO_PERF_TOLERANCE or 0.25)",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="append this run's medians (+ git SHA, timestamp) to the history",
    )
    parser.add_argument(
        "--history-path",
        default=str(DEFAULT_HISTORY),
        help="BENCH_history.jsonl location (with --append-history)",
    )
    args = parser.parse_args(argv)
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.25"))

    path = Path(args.path)
    if not path.exists():
        print(f"error: {path} not found (run benchmarks with --perf-json first)")
        return 1
    data = json.loads(path.read_text())

    if args.append_history:
        entry = append_history(data, Path(args.history_path))
        sha = entry["sha"] or "no-git"
        print(
            f"history: appended {len(entry['medians'])} medians "
            f"({str(sha)[:12]}) to {args.history_path}"
        )

    failures = check(data, tolerance)
    tracked = len(data.get("seed", {}))
    if failures:
        print(f"\nperf guard: {len(failures)}/{tracked} tracked keys FAILED")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nperf guard: all {tracked} tracked keys within {tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
