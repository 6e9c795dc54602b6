"""``python -m repro.store`` — operate on a result store from the shell.

Subcommands::

    python -m repro.store stats DIR [--json]
    python -m repro.store verify DIR [--delete]
    python -m repro.store gc DIR [--max-bytes N] [--max-age-days D] [--dry-run]
    python -m repro.store invalidate DIR (--all | PREFIX [PREFIX ...])

Exit codes: 0 success, 1 problems found (corrupt entries, nothing
matched), 2 usage errors (including a directory that is not a
``repro.store/1`` store).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import StoreError
from repro.store.backend import StoreBackend, open_store
from repro.store.gc import collect_garbage

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect and maintain a content-addressed result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="entry/byte/journal counts")
    p_stats.add_argument("store", help="store directory")
    p_stats.add_argument("--json", action="store_true", help="emit JSON")

    p_verify = sub.add_parser("verify", help="checksum every entry")
    p_verify.add_argument("store", help="store directory")
    p_verify.add_argument(
        "--delete", action="store_true", help="remove corrupt entries"
    )

    p_gc = sub.add_parser("gc", help="evict LRU entries past size/age caps")
    p_gc.add_argument("store", help="store directory")
    p_gc.add_argument("--max-bytes", type=int, default=None, help="size cap")
    p_gc.add_argument(
        "--max-age-days", type=float, default=None, help="evict entries older than this"
    )
    p_gc.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )

    p_inv = sub.add_parser("invalidate", help="drop entries by key prefix")
    p_inv.add_argument("store", help="store directory")
    p_inv.add_argument("prefixes", nargs="*", help="hex key prefixes to drop")
    p_inv.add_argument("--all", action="store_true", help="drop every entry")
    return parser


def _cmd_stats(store: StoreBackend, args: argparse.Namespace) -> int:
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        for k in ("root", "schema", "entries", "nbytes", "journals"):
            print(f"{k}: {stats[k]}")
    return 0


def _cmd_verify(store: StoreBackend, args: argparse.Namespace) -> int:
    bad = store.verify()
    total = sum(1 for _ in store.keys())
    if not bad:
        print(f"ok: {total} entries verified")
        return 0
    for key, problem in bad:
        print(f"corrupt: {key}: {problem}", file=sys.stderr)
        if args.delete:
            store.delete(key)
    if args.delete:
        store.flush_index()
        print(f"deleted {len(bad)} corrupt entries", file=sys.stderr)
    print(f"{len(bad)}/{total} entries corrupt", file=sys.stderr)
    return 1


def _cmd_gc(store: StoreBackend, args: argparse.Namespace) -> int:
    max_age_s = None if args.max_age_days is None else args.max_age_days * 86400.0
    report = collect_garbage(
        store,
        max_bytes=args.max_bytes,
        max_age_s=max_age_s,
        dry_run=args.dry_run,
    )
    print(report)
    return 0


def _cmd_invalidate(store: StoreBackend, args: argparse.Namespace) -> int:
    if args.all == bool(args.prefixes):
        print("invalidate: pass either --all or at least one prefix", file=sys.stderr)
        return 2
    doomed = [
        key
        for key in store.keys()
        if args.all or any(key.startswith(p) for p in args.prefixes)
    ]
    for key in doomed:
        store.delete(key)
    store.flush_index()
    print(f"invalidated {len(doomed)} entries")
    return 0 if doomed or args.all else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        store = open_store(args.store)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "stats": _cmd_stats,
        "verify": _cmd_verify,
        "gc": _cmd_gc,
        "invalidate": _cmd_invalidate,
    }[args.command]
    return handler(store, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
