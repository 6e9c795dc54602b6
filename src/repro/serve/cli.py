"""``repro-serve`` — the query service from the shell.

Modes::

    repro-serve STORE                      # stdio JSON-lines loop
    repro-serve STORE --make-workload F    # write the benchmark workload
    repro-serve STORE --bench F            # replay a workload, report perf

The stdio loop reads one JSON request per line and writes one JSON
response per line (``{"error": ...}`` for bad requests); lines are
handled *concurrently* — pipe many identical requests in at once and
the single-flight map answers them with one scheduler run.  Responses
carry a ``seq`` field (the 1-based input line) because completion
order is not arrival order.

``--bench`` replays the workload twice — a cold pass (measures
coalescing: with the default interleaved duplicates every query's
copies are in flight together) and a warm pass (measures memory-tier
latency) — prints both, and with ``--perf-json`` merges
``serve.bench.*`` medians into the perf ledger's ``current`` section,
where ``benchmarks/check_perf.py`` gates warm p50 and the cold
coalescing ratio.  ``--trace`` exports the replay's span tree as a
Chrome trace (the CI artifact).

Exit codes: 0 success, 1 bench gate-relevant failure (timeouts or
failed requests during replay), 2 usage errors.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, TextIO

from repro.errors import ReproError
from repro.obs import spans as obs_spans
from repro.obs.export import write_chrome_trace
from repro.obs.spans import SpanBuffer
from repro.serve.service import QueryService
from repro.serve.workload import load_workload, make_workload, replay, save_workload

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve bound/objective queries over a result store.",
    )
    parser.add_argument("store", help="store directory")
    parser.add_argument(
        "--workers", type=int, default=1, help="scheduler workers per batch"
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="per-attempt timeout (s)"
    )
    parser.add_argument(
        "--retries", type=int, default=1, help="request retry attempts"
    )
    parser.add_argument(
        "--memory-entries",
        type=int,
        default=1024,
        help="read-through memory tier capacity",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--make-workload",
        metavar="FILE",
        help="write the benchmark workload and exit",
    )
    mode.add_argument(
        "--bench",
        metavar="FILE",
        help="replay a workload file (cold + warm) and report",
    )
    parser.add_argument(
        "--queries", type=int, default=20, help="distinct queries (--make-workload)"
    )
    parser.add_argument(
        "--duplicates",
        type=int,
        default=2,
        help="interleaved copies per query (--make-workload)",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=10,
        help="simulation runs per query (--make-workload)",
    )
    parser.add_argument(
        "--perf-json",
        metavar="FILE",
        help="with --bench: merge serve.bench.* medians into this ledger",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="with --bench: export the replay's spans as a Chrome trace",
    )
    return parser


# ----------------------------------------------------------------------
# stdio JSON-lines loop
# ----------------------------------------------------------------------
async def _serve_stdio(
    service: QueryService, stdin: TextIO, stdout: TextIO
) -> int:
    """Read requests line by line, answer concurrently, one JSON per line."""
    loop = asyncio.get_running_loop()
    tasks: set[asyncio.Task[None]] = set()
    lock = asyncio.Lock()

    async def _emit(doc: dict) -> None:
        async with lock:
            stdout.write(json.dumps(doc, sort_keys=True) + "\n")
            stdout.flush()

    async def _handle(seq: int, line: str) -> None:
        try:
            response = await service.query(line)
            response["seq"] = seq
        except ReproError as exc:
            response = {"seq": seq, "error": f"{type(exc).__name__}: {exc}"}
        await _emit(response)

    seq = 0
    while True:
        line = await loop.run_in_executor(None, stdin.readline)
        if not line:
            break
        if not line.strip():
            continue
        seq += 1
        task = loop.create_task(_handle(seq, line))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks)
    return 0


# ----------------------------------------------------------------------
# benchmark replay
# ----------------------------------------------------------------------
def _merge_perf(path: str, updates: dict[str, float]) -> None:
    """Merge medians into the ledger's ``current`` section in place."""
    ledger_path = Path(path)
    ledger: dict[str, Any] = {}
    if ledger_path.exists():
        ledger = json.loads(ledger_path.read_text())
    ledger.setdefault("current", {}).update(updates)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def _print_pass(name: str, report: dict) -> None:
    print(
        f"{name}: {report['requests']} requests in {report['total_s']:.3f}s | "
        f"p50 {report['p50_s'] * 1e3:.2f}ms p95 {report['p95_s'] * 1e3:.2f}ms | "
        f"{report['task_lookups']} lookups -> {report['tasks_served']} served "
        f"(coalescing {report['coalescing_ratio']:.2f}x, "
        f"{report['batches']} batches, {report['memory_hits']} memory hits)"
    )


async def _bench(service: QueryService, requests: list[dict]) -> tuple[dict, dict]:
    # Cold: open loop (all requests in flight), measures coalescing.
    cold = await replay(service, requests)
    # Warm: closed loop (back to back), measures per-query latency.
    warm = await replay(service, requests, concurrent=False)
    return cold, warm


def _cmd_bench(service: QueryService, args: argparse.Namespace) -> int:
    requests = load_workload(args.bench)

    async def _run() -> tuple[dict, dict]:
        async with service:
            return await _bench(service, requests)

    buffer: SpanBuffer | None = None
    if args.trace:
        buffer = SpanBuffer()
        with obs_spans.capture_spans(buffer):
            cold, warm = asyncio.run(_run())
    else:
        cold, warm = asyncio.run(_run())

    _print_pass("cold", cold)
    _print_pass("warm", warm)

    if buffer is not None:
        out = write_chrome_trace(buffer.spans, args.trace)
        print(f"trace: {len(buffer)} spans -> {out}")

    if args.perf_json:
        updates = {
            "serve.bench.cold_p50_s": cold["p50_s"],
            "serve.bench.cold_total_s": cold["total_s"],
            "serve.bench.cold_coalescing_ratio": cold["coalescing_ratio"],
            "serve.bench.warm_p50_s": warm["p50_s"],
            "serve.bench.warm_p95_s": warm["p95_s"],
        }
        _merge_perf(args.perf_json, updates)
        print(f"perf: merged {len(updates)} serve.bench.* keys -> {args.perf_json}")

    bad = cold["failures"] + warm["failures"] + cold["timeouts"] + warm["timeouts"]
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.make_workload:
        requests = make_workload(
            args.queries,
            duplicates=args.duplicates,
            replications=args.replications,
        )
        out = save_workload(args.make_workload, requests)
        print(
            f"workload: {len(requests)} requests "
            f"({args.queries} distinct x {args.duplicates}) -> {out}"
        )
        return 0

    try:
        service = QueryService(
            args.store,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            memory_entries=args.memory_entries,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.bench:
        try:
            return _cmd_bench(service, args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    async def _run_stdio() -> int:
        async with service:
            return await _serve_stdio(service, sys.stdin, sys.stdout)

    return asyncio.run(_run_stdio())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
