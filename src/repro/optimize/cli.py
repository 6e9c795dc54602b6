"""Command-line driver: find the best broadcast probability for a query.

Installed as the ``repro-optimize`` console script::

    repro-optimize --rho 80 --min-reach 0.95 --objective latency
    repro-optimize --rho 60 --max-energy 40 --objective reachability \\
        --store .repro-store --json
    repro-optimize --rho 100 --min-reach 0.9 --objective latency,energy \\
        --no-verify --resolution 0.01

Exit codes: 0 on success, 1 when no probability satisfies the bounds
(empty frontier), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby

from repro.analysis.config import AnalysisConfig
from repro.errors import ReproError
from repro.optimize.api import OptimizeResult, optimize
from repro.optimize.spec import METRIC_NAMES, METRIC_SENSES
from repro.sim.config import SimulationConfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-optimize",
        description=(
            "Pareto-frontier search for the best broadcast probability "
            "under reachability/latency/energy constraints."
        ),
    )
    scenario = parser.add_argument_group("scenario")
    scenario.add_argument(
        "--rho", type=float, default=60.0, help="neighbor density (default: 60)"
    )
    scenario.add_argument(
        "--n-rings", type=int, default=5, help="field rings P (default: 5)"
    )
    scenario.add_argument(
        "--slots", type=int, default=3, help="slots per phase s (default: 3)"
    )
    scenario.add_argument(
        "--carrier-sense",
        action="store_true",
        help="carrier-sense collisions (Appendix A surrogate + simulator)",
    )

    query = parser.add_argument_group("query")
    query.add_argument(
        "--min-reach",
        type=float,
        default=None,
        metavar="R",
        help="hard bound: mean reachability >= R",
    )
    query.add_argument(
        "--max-latency",
        type=float,
        default=None,
        metavar="L",
        help="hard bound: latency <= L phases",
    )
    query.add_argument(
        "--max-energy",
        type=float,
        default=None,
        metavar="E",
        help="hard bound: broadcast count <= E",
    )
    query.add_argument(
        "--objective",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "metric to optimize (repeatable or comma-separated, primary "
            f"first): {', '.join(METRIC_NAMES)}"
        ),
    )
    query.add_argument(
        "--min-feasible",
        type=float,
        default=0.5,
        help="fraction of replications that must satisfy the bounds (default: 0.5)",
    )

    search = parser.add_argument_group("search")
    search.add_argument("--seed", type=int, default=None, help="root seed")
    search.add_argument(
        "--resolution",
        type=float,
        default=0.001,
        help="probability-ladder step (default: 0.001)",
    )
    search.add_argument(
        "--restarts", type=int, default=4, help="random restarts (default: 4)"
    )
    search.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative band behind the surrogate frontier that still gets "
        "verified (default: 0.05)",
    )
    search.add_argument(
        "--no-verify",
        action="store_true",
        help="skip Monte-Carlo verification; report the analytical frontier",
    )

    verify = parser.add_argument_group("verification")
    verify.add_argument(
        "--replications",
        type=int,
        default=30,
        help="Monte-Carlo runs per verified candidate (default: 30)",
    )
    verify.add_argument(
        "--max-verify",
        type=int,
        default=4,
        help="candidate cap for the simulator (default: 4)",
    )
    verify.add_argument(
        "--engine",
        choices=("vector", "event"),
        default="vector",
        help="simulation engine (default: vector)",
    )
    verify.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the verification sweep (default: 1)",
    )
    verify.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="replications per dispatched block (default: engine heuristic)",
    )
    verify.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory: reuse cached simulation tasks, persist "
        "fresh ones (a warm store makes repeat queries free)",
    )
    verify.add_argument(
        "--resume",
        action="store_true",
        help="with --store: resume an interrupted verification from its journal",
    )

    out = parser.add_argument_group("output")
    out.add_argument("--json", action="store_true", help="emit a JSON report")
    out.add_argument(
        "-o",
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write a provenance manifest into DIR",
    )
    return parser


_SENSE_VERBS = {"max": "maximize", "min": "minimize"}


def _render(result: OptimizeResult) -> str:
    """The human-readable report."""
    lines: list[str] = []
    q = result.query
    bounds = ", ".join(
        f"{name} {'>=' if name == 'reachability' else '<='} {v:g}"
        for name, v in sorted(q.bounds.items())
    )
    goals = ", ".join(
        f"{_SENSE_VERBS[sense]} {', '.join(names)}"
        for sense, names in groupby(q.objectives, key=METRIC_SENSES.__getitem__)
    )
    lines.append(
        f"query: {goals}"
        + (f"  subject to {bounds}" if bounds else "  (unconstrained)")
    )
    lines.append(
        f"search: {result.surrogate_probes} surrogate probes, "
        f"{len(result.candidates)} candidates verified, "
        f"{result.sim_tasks} simulator runs"
    )
    if not result.frontier:
        lines.append("frontier: EMPTY — no probability satisfies the bounds")
        return "\n".join(lines)
    lines.append("frontier:")
    header = f"  {'p':>7} {'reach':>8} {'latency':>9} {'energy':>9}  source"
    lines.append(header)
    for pt in result.frontier:
        ev = pt.evaluation
        mark = " *" if result.best is pt else ""
        lines.append(
            f"  {ev.p:7.3f} {ev.reachability:8.4f} {ev.latency:9.3f} "
            f"{ev.energy:9.2f}  {ev.source}{mark}"
        )
    if result.best is not None:
        lines.append(f"best p: {result.best.p:g}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.objective is None:
        print("at least one --objective is required", file=sys.stderr)
        return 2
    objectives = [
        name.strip()
        for spec in args.objective
        for name in spec.split(",")
        if name.strip()
    ]
    bounds: dict[str, float] = {}
    if args.min_reach is not None:
        bounds["reachability"] = args.min_reach
    if args.max_latency is not None:
        bounds["latency"] = args.max_latency
    if args.max_energy is not None:
        bounds["energy"] = args.max_energy
    if args.resume and args.store is None:
        print("--resume requires --store", file=sys.stderr)
        return 2

    try:
        config = SimulationConfig(
            analysis=AnalysisConfig(
                n_rings=args.n_rings, rho=args.rho, slots=args.slots
            ),
            carrier_sense=args.carrier_sense,
        )
        result = optimize(
            config,
            objectives=objectives,
            bounds=bounds,
            seed=args.seed,
            resolution=args.resolution,
            restarts=args.restarts,
            tolerance=args.tolerance,
            verify=not args.no_verify,
            replications=args.replications,
            max_verify=args.max_verify,
            min_feasible=args.min_feasible,
            engine=args.engine,
            workers=args.workers,
            store=args.store,
            resume=args.resume,
            block_size=args.block_size,
            manifest_dir=args.manifest_dir,
        )
    except ValueError as exc:  # includes ConfigurationError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render(result))
    return 0 if result.frontier else 1


if __name__ == "__main__":
    raise SystemExit(main())
