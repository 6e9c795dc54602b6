"""``python -m repro.analysis`` / ``repro-lint`` — run the invariant linter.

Runs the per-module AST rules and the whole-program flow analyses
(seed provenance, determinism taint, effect contracts) in one pass.
Exit codes: 0 clean (or everything baselined/suppressed), 1 new
findings, 2 usage or I/O error.  Run from the repo root so the
path-scoped rules see ``src/repro/...`` paths::

    python -m repro.analysis src tests benchmarks
    python -m repro.analysis --format json src
    python -m repro.analysis --format sarif src > lint.sarif
    python -m repro.analysis --write-baseline src tests
    python -m repro.analysis --write-effects src
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.lint.baseline import (
    fingerprint_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.lint.core import (
    all_project_rules,
    all_rules,
    check_paths,
    iter_python_files,
)
from repro.analysis.lint.report import render_json, render_sarif, render_text

__all__ = ["main", "build_parser"]

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")
DEFAULT_BASELINE = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST and whole-program dataflow invariant linter for the "
            "repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to check (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE}; "
        "a missing file is an empty baseline)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file; every unsuppressed finding fails",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="parse and check every file, reading and writing no cached "
        "per-file facts (.repro-lint-cache/)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="override the incremental cache directory",
    )
    parser.add_argument(
        "--write-effects",
        action="store_true",
        help="regenerate effects-manifest.json from inference and exit 0",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="check only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    rules = all_rules()
    project_rules = all_project_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id:20s} {rule.summary}")
        for prule in project_rules:
            print(f"{prule.id:20s} [project] {prule.summary}")
        return 0
    if args.rule:
        known = {r.id for r in rules} | {r.id for r in project_rules}
        unknown = [r for r in args.rule if r not in known]
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        wanted = set(args.rule)
        rules = [r for r in rules if r.id in wanted]
        project_rules = [r for r in project_rules if r.id in wanted]

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    root = Path.cwd()

    if args.write_effects:
        from repro.analysis.flow.rules import (
            EFFECTS_MANIFEST_NAME,
            effects_manifest_for_paths,
        )

        manifest = effects_manifest_for_paths(
            args.paths,
            root=root,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
        out = root / EFFECTS_MANIFEST_NAME
        out.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(manifest)} impure function(s) to {out.name}")
        return 0

    parse_errors: list[str] = []
    findings, unused = check_paths(
        args.paths,
        rules=rules,
        root=root,
        on_error=lambda f, exc: parse_errors.append(f"{f}: {exc.msg} (line {exc.lineno})"),
        project_rules=project_rules,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    files_checked = sum(1 for _ in iter_python_files(args.paths))
    for err in parse_errors:
        print(f"warning: skipped unparseable file {err}", file=sys.stderr)

    suppressed = [f for f in findings if f.suppressed]
    active = [f for f in findings if not f.suppressed]

    if args.write_baseline:
        baseline = save_baseline(args.baseline, active)
        print(f"wrote {len(baseline)} finding(s) to {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.no_baseline:
        baseline.fingerprints = set()

    new: list = []
    baselined: list = []
    for f, fp in fingerprint_findings(active):
        (baselined if fp in baseline else new).append(f)

    if args.format == "json":
        print(render_json(new, baselined, suppressed, files_checked=files_checked))
    elif args.format == "sarif":
        print(
            render_sarif(
                new,
                baselined,
                suppressed,
                rules=[*rules, *project_rules],
            )
        )
    else:
        print(
            render_text(
                new,
                baselined,
                suppressed,
                unused_suppressions=unused,
                files_checked=files_checked,
            )
        )
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
