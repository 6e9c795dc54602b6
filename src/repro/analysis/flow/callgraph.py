"""Call graph over the project symbol table.

Resolves every call site in every function exactly once (the taint and
effect analyses share the resolved view), and keeps forward and reverse
edge maps plus a reachability helper for contract checks of the form
"everything reachable from ``store.keys.task_key`` is pure".
"""

from __future__ import annotations

from collections import deque

from repro.analysis.flow.summary import CallSite
from repro.analysis.flow.symbols import Project, ResolvedCall

__all__ = ["CallGraph"]


class CallGraph:
    """Resolved call sites + forward/reverse edges for a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller FQ -> [(site, resolution)] in call-site order
        self.resolved: dict[str, list[tuple[CallSite, ResolvedCall]]] = {}
        #: caller FQ -> sorted unique project callee FQs
        self.edges: dict[str, list[str]] = {}
        #: callee FQ -> [(caller FQ, site, resolution)]
        self.callers: dict[str, list[tuple[str, CallSite, ResolvedCall]]] = {}

        for fq in sorted(project.functions):
            fn = project.functions[fq]
            sites: list[tuple[CallSite, ResolvedCall]] = []
            targets: set[str] = set()
            for site in fn.summary.calls:
                resolved = project.resolve_call(fn, site)
                sites.append((site, resolved))
                for callee in resolved.project_targets:
                    targets.add(callee)
                    self.callers.setdefault(callee, []).append(
                        (fq, site, resolved)
                    )
            self.resolved[fq] = sites
            self.edges[fq] = sorted(targets)

    def reachable_from(self, roots: list[str] | set[str]) -> set[str]:
        """Project functions reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        queue = deque(r for r in roots if r in self.project.functions)
        seen.update(queue)
        while queue:
            fq = queue.popleft()
            for callee in self.edges.get(fq, []):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return seen
