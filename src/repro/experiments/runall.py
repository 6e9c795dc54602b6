"""Command-line driver: regenerate the paper's evaluation figures.

Installed as the ``repro-figures`` console script::

    repro-figures --scale quick                 # every figure, coarse grids
    repro-figures --scale full --workers 8      # the paper's grids
    repro-figures --figures fig4b,fig12         # a subset
    repro-figures --markdown -o results.md      # EXPERIMENTS.md-style output
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from repro.experiments.figures import FIGURES, generate_figure
from repro.experiments.params import ExperimentScale
from repro.obs import progress as obs_progress
from repro.obs import provenance as obs_provenance

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Regenerate the evaluation figures of Yu/Hong/Prasanna 2005.",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="grid resolution: 'quick' for minutes, 'full' for the paper's grids",
    )
    parser.add_argument(
        "--figures",
        default="all",
        help="comma-separated figure names (default: all); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available figures and exit"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for simulated sweeps (default: every usable CPU)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit markdown sections"
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII chart of each figure's series",
    )
    parser.add_argument(
        "--save-json",
        default=None,
        metavar="DIR",
        help="also save each figure as JSON into DIR (plus a provenance manifest)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-sweep progress/ETA lines to stderr",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory: serve cached simulation tasks, persist "
        "fresh ones (see `python -m repro.store`)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --store: resume an interrupted sweep from its journal",
    )
    parser.add_argument(
        "-o", "--output", default=None, help="write to a file instead of stdout"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list:
        print("\n".join(sorted(FIGURES)))
        return 0

    if args.resume and args.store is None:
        print("--resume requires --store", file=sys.stderr)
        return 2
    factory = ExperimentScale.full if args.scale == "full" else ExperimentScale.quick
    scale = factory(
        workers=args.workers,
        progress=args.progress,
        store=args.store,
        resume=args.resume,
    )

    if args.figures == "all":
        names = list(FIGURES)
    else:
        names = [n.strip() for n in args.figures.split(",") if n.strip()]
        unknown = [n for n in names if n not in FIGURES]
        if unknown:
            print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
            return 2

    started = obs_provenance.start_clock()
    sections: list[str] = []
    saved: list = []
    failures: list[tuple[str, str]] = []
    for i, name in enumerate(names, start=1):
        obs_progress.stage(i, len(names), name)
        start = time.perf_counter()
        try:
            result = generate_figure(name, scale)
        except Exception as exc:
            # One broken figure must not silence the rest of the battery;
            # collect it and report a non-zero exit at the end.
            traceback.print_exc(file=sys.stderr)
            obs_progress.stage(i, len(names), name, error=f"{type(exc).__name__}: {exc}")
            failures.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        elapsed = time.perf_counter() - start
        obs_progress.stage(i, len(names), name, elapsed=elapsed)
        body = result.to_markdown() if args.markdown else result.to_text()
        if args.chart:
            from repro.viz import line_chart

            try:
                chart = line_chart(
                    list(result.x_values),
                    {k: list(v) for k, v in result.series.items()},
                    title=f"{result.figure} ({result.x_name} axis)",
                )
                body = f"{body}\n\n{chart}"
            except ValueError:
                pass  # nothing chartable (e.g. all-NaN series)
        if args.save_json:
            saved.append(result)
        sections.append(f"{body}\n[{name}: {elapsed:.1f}s at scale={scale.name}]")

    if args.save_json and saved:
        from repro.experiments.io import save_figures

        paths = save_figures(saved, args.save_json)
        obs_provenance.write_manifest(
            args.save_json,
            "experiments.runall",
            seed=scale.seed,
            params={
                "scale": scale.name,
                "figures": [r.figure for r in saved],
                "failed": [n for n, _ in failures],
                "replications": scale.replications,
                "rho_grid": list(scale.rho_grid),
                "store": scale.store,
            },
            started=started,
        )
        sections.append(f"[saved {len(paths)} JSON figures to {args.save_json}]")

    text = "\n\n".join(sections) + "\n" if sections else ""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    if failures:
        summary = "; ".join(f"{n}: {err}" for n, err in failures)
        print(
            f"error: {len(failures)}/{len(names)} figure(s) failed — {summary}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
