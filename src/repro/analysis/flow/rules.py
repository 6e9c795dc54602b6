"""Whole-program lint rules backed by the flow analyses.

========================  ====================================================
rule id                   guarantee
========================  ====================================================
flow-seed-provenance      every RNG/SeedSequence construction in ``src/repro``
                          is derived — through the project call graph — from a
                          seed-typed parameter or an explicit ``SeedSequence()``
                          entropy boundary; no hardcoded literal seeds
flow-det-taint            wallclock/entropy/address/set-order values never
                          flow into store key material, packed result
                          payloads, trace-event fields, or manifest contents
flow-effects              inferred per-function effects satisfy the declared
                          contracts (e.g. ``store.keys`` pure) and match the
                          committed ``effects-manifest.json``
========================  ====================================================

All three share one :class:`FlowProgram` (module summaries → symbol
table → call graph) built once per check run and memoized on the
:class:`~repro.analysis.lint.core.ProjectContext`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.flow.cache import SummaryCache, open_cache
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.effects import EffectInference
from repro.analysis.flow.summary import module_name_for_path
from repro.analysis.flow.symbols import Project
from repro.analysis.flow.taint import DeterminismTaint, SeedProvenance
from repro.analysis.lint.core import (
    Finding,
    ProjectContext,
    ProjectRule,
    all_rules,
    iter_python_files,
    register_project,
    relative_posix,
)

__all__ = [
    "EFFECTS_MANIFEST_NAME",
    "FlowProgram",
    "FlowSeedProvenance",
    "FlowDetTaint",
    "FlowEffects",
    "effects_manifest_for_paths",
]

EFFECTS_MANIFEST_NAME = "effects-manifest.json"

#: Sentinel module whose presence marks a full-``src/repro`` scan; the
#: manifest drift check only runs then (a partial scan would misread
#: every out-of-scope manifest entry as stale).
_FULL_SCAN_SENTINEL = "src/repro/__init__.py"


class FlowProgram:
    """Shared symbol table + call graph for one check run."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph

    @classmethod
    def ensure(cls, pctx: ProjectContext) -> "FlowProgram":
        """The run's program; a module served from the fact cache has no
        tree, so a summary miss parses it."""
        program = pctx.memo.get("flow-program")
        if program is None:
            cache = pctx.cache or SummaryCache(None)
            summaries = []
            for path in sorted(pctx.modules):
                if not module_name_for_path(path):
                    continue
                ctx = pctx.modules[path]
                summaries.append(cache.summary_for(path, ctx.source, ctx.tree))
            project = Project(summaries)
            program = cls(project, CallGraph(project))
            pctx.memo["flow-program"] = program
        return program


def _emit(pctx: ProjectContext, rule_id: str, violations) -> Iterator[Finding]:
    for v in violations:
        yield pctx.finding(rule_id, v.path, v.line, v.col, v.message)


@register_project
class FlowSeedProvenance(ProjectRule):
    id = "flow-seed-provenance"
    summary = (
        "RNG construction must derive from a seed parameter or an "
        "explicit entropy boundary (call-graph provenance)"
    )

    def check_project(self, pctx: ProjectContext) -> Iterator[Finding]:
        program = FlowProgram.ensure(pctx)
        analysis = SeedProvenance(program.project, program.graph)
        yield from _emit(pctx, self.id, analysis.violations())


@register_project
class FlowDetTaint(ProjectRule):
    id = "flow-det-taint"
    summary = (
        "wallclock/entropy/address/set-order values must not reach store "
        "keys, packed results, trace events, or manifests"
    )

    def check_project(self, pctx: ProjectContext) -> Iterator[Finding]:
        program = FlowProgram.ensure(pctx)
        analysis = DeterminismTaint(program.project, program.graph)
        yield from _emit(pctx, self.id, analysis.violations())


@register_project
class FlowEffects(ProjectRule):
    id = "flow-effects"
    summary = (
        "inferred function effects must satisfy declared contracts and "
        "match the committed effects manifest"
    )

    def check_project(self, pctx: ProjectContext) -> Iterator[Finding]:
        program = FlowProgram.ensure(pctx)
        inference = EffectInference(program.project, program.graph)
        yield from _emit(pctx, self.id, inference.contract_violations())
        if pctx.root is None or _FULL_SCAN_SENTINEL not in pctx.modules:
            return
        manifest_path = Path(pctx.root) / EFFECTS_MANIFEST_NAME
        if not manifest_path.is_file():
            return  # tier-1 asserts the committed manifest exists
        try:
            committed = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            committed = {}
        if not isinstance(committed, dict):
            committed = {}
        committed = {
            str(k): [str(e) for e in v]
            for k, v in committed.items()
            if isinstance(v, list)
        }
        yield from _emit(
            pctx,
            self.id,
            inference.manifest_drift(committed, EFFECTS_MANIFEST_NAME),
        )


def effects_manifest_for_paths(
    paths: Sequence[str | Path],
    root: Path | None = None,
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
) -> dict[str, list[str]]:
    """Inferred effects manifest for the project files under ``paths``."""
    # keyed like a default check run, whose summary entries it reuses
    cache = open_cache(all_rules(), root, use_cache, cache_dir)
    summaries = []
    for file in iter_python_files(paths):
        rel = relative_posix(file, root)
        if not module_name_for_path(rel):
            continue
        try:
            source = file.read_text(encoding="utf-8")
            summaries.append(cache.summary_for(rel, source))
        except (OSError, SyntaxError):
            continue
    project = Project(summaries)
    return EffectInference(project, CallGraph(project)).manifest()
