"""Linter plumbing: findings, the rule registry, suppressions, checking.

A rule is a small object with an ``id``, a one-line ``summary``, a
path-scoping predicate (:meth:`Rule.applies`) and a :meth:`Rule.check`
that reads a parsed module through :meth:`ModuleContext.nodes` and
yields :class:`Finding` objects.  ``nodes`` answers from an index built
by one ``ast.walk`` per module, so a rule costs what it matches, not a
walk of the tree.  Rules register themselves into a module-level
registry via :func:`register` so the CLI, the pytest hook and the
self-tests all see the same set.

Suppressions are per-finding and must carry a reason::

    informed = np.append(informed, fresh)  # repro: allow(vec-object-dtype) — cold setup path

A suppression comment applies to findings on its own line, or — when it
is the entire line — to the first following line that holds code.  A
reason is mandatory; a bare ``# repro: allow(rule)`` does not suppress
(the finding survives, which is how you notice the malformed comment).
Only files whose text contains ``repro:`` are tokenized for them.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar, overload

__all__ = [
    "Finding",
    "Suppression",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "ProjectRule",
    "register",
    "register_project",
    "get_rule",
    "all_rules",
    "all_project_rules",
    "check_source",
    "check_paths",
    "check_project_sources",
    "iter_python_files",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: repo-relative posix path
    line: int  #: 1-based source line
    col: int  #: 0-based column
    message: str
    snippet: str = ""  #: stripped source line, for stable fingerprints
    suppressed: bool = False
    suppress_reason: str = ""

    def fingerprint(self, occurrence: int = 0) -> str:
        """Content-based identity, stable under unrelated line drift.

        The line *number* is deliberately excluded: inserting code above
        a grandfathered finding must not turn it into a "new" one.  Two
        identical snippets in one file are told apart by ``occurrence``
        (their top-to-bottom index among same-fingerprint findings).
        """
        raw = f"{self.rule}\x00{self.path}\x00{self.snippet}\x00{occurrence}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


#: Matches comments of the form ``repro: allow(rule-a, rule-b) — reason``
#: (reason mandatory; the dash may be an em/en dash or a plain hyphen).
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rules>[a-z0-9_*,\s-]+?)\s*\)\s*(?:[—–-]+\s*)?(?P<reason>.*)$"
)
#: A literal every :data:`_SUPPRESS_RE` match contains: a source without
#: it holds no suppression, so it is never tokenized.
_SUPPRESS_MARKER = "repro:"


@dataclass
class Suppression:
    """A parsed ``# repro: allow(...)`` comment."""

    line: int  #: line the comment sits on
    rules: tuple[str, ...]
    reason: str
    used: bool = False

    @property
    def valid(self) -> bool:
        return bool(self.reason.strip())

    def covers(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """Map *effective* line number -> suppression.

    Only real ``COMMENT`` tokens count (a suppression example inside a
    docstring is documentation, not a suppression).  A comment on a code
    line guards that line; a comment that is the whole line guards the
    next non-blank, non-comment line.  A source without
    :data:`_SUPPRESS_MARKER` cannot match, so it skips tokenizing.
    """
    out: dict[int, Suppression] = {}
    if _SUPPRESS_MARKER not in source:
        return out
    lines = source.splitlines()
    n = len(lines)
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _SUPPRESS_RE.search(tok.string)
        if m is None:
            continue
        i = tok.start[0]
        rules = tuple(r.strip() for r in m.group("rules").split(",") if r.strip())
        sup = Suppression(line=i, rules=rules, reason=m.group("reason").strip())
        target = i
        if lines[i - 1].lstrip().startswith("#"):
            j = i  # comment-only line: guard the next code line
            while j < n:
                nxt = lines[j].strip()
                if nxt and not nxt.startswith("#"):
                    target = j + 1
                    break
                j += 1
        out[target] = sup
    return out


_N = TypeVar("_N", bound=ast.AST)


@dataclass
class ModuleContext:
    """Everything a rule needs to check one module.

    Rules read the tree through :meth:`nodes` rather than walking it,
    and share what they derive from it (the rules' import map) through
    :attr:`memo`; :meth:`drop_index` frees both once the module rules
    have run.
    """

    path: str  #: repo-relative posix path
    tree: ast.Module
    lines: Sequence[str]
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    source: str = ""  #: raw text (project rules feed it to the fact cache)
    memo: dict[Any, Any] = field(default_factory=dict, repr=False)
    _walk: list[ast.AST] | None = field(default=None, init=False, repr=False)
    _index: dict[tuple[type, ...], list[ast.AST]] = field(
        default_factory=dict, init=False, repr=False
    )

    @overload
    def nodes(self, node_type: type[_N], /) -> list[_N]: ...

    @overload
    def nodes(self, *types: type[ast.AST]) -> list[ast.AST]: ...

    def nodes(self, *types: type[ast.AST]) -> list[ast.AST]:
        """The module's nodes that are instances of ``types``, in
        ``ast.walk`` order: ``[n for n in ast.walk(tree) if
        isinstance(n, types)]``.

        The first call walks the tree once and keeps the walk; each
        distinct query filters it once and is memoized, so the rules of
        a module share one walk and a multi-type query keeps walk order.
        """
        walk = self._walk
        if walk is None:
            walk = self._walk = list(ast.walk(self.tree))
        hit = self._index.get(types)
        if hit is None:
            hit = self._index[types] = [n for n in walk if isinstance(n, types)]
        return list(hit)

    def drop_index(self) -> None:
        """Free the node index and the memo (rebuilt on next use)."""
        self._walk = None
        self._index = {}
        self.memo = {}

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        return self.finding_at(
            rule,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )

    def finding_at(
        self, rule: str, line: int, col: int, message: str
    ) -> Finding:
        sup = self.suppressions.get(line)
        suppressed = sup is not None and sup.valid and sup.covers(rule)
        if suppressed and sup is not None:
            sup.used = True
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
            suppressed=suppressed,
            suppress_reason=sup.reason if (suppressed and sup is not None) else "",
        )


@dataclass
class ProjectContext:
    """Everything a whole-program rule needs: all module contexts.

    Project rules see every checked module at once (the flow analyses
    build a cross-module call graph), attach findings to individual
    files through the same suppression machinery as per-module rules,
    and share expensive intermediates through :attr:`memo` (the flow
    program — symbol table + call graph — is built once per check run,
    not once per rule).
    """

    modules: dict[str, ModuleContext]  #: repo-relative posix path -> ctx
    root: Path | None = None  #: repo root (manifest + cache locations)
    cache_dir: Path | None = None  #: override for the fact-cache dir
    use_cache: bool = True
    memo: dict = field(default_factory=dict)

    def finding(
        self, rule: str, path: str, line: int, col: int, message: str
    ) -> Finding:
        ctx = self.modules.get(path)
        if ctx is not None:
            return ctx.finding_at(rule, line, col, message)
        # findings on non-module artifacts (e.g. the effects manifest)
        return Finding(rule=rule, path=path, line=line, col=col, message=message)


class Rule:
    """Base class for invariant rules.

    Subclasses set :attr:`id` and :attr:`summary`, optionally override
    :meth:`applies` for path scoping, and implement :meth:`check`, which
    reads the module through :meth:`ModuleContext.nodes` (one shared
    walk per module) instead of walking ``ctx.tree`` itself.
    """

    id: str = ""
    summary: str = ""

    def applies(self, path: str) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-program rules (one check over all modules)."""

    id: str = ""
    summary: str = ""

    def check_project(self, pctx: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}
_PROJECT_REGISTRY: dict[str, ProjectRule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator: instantiate and add to the project registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"project rule {cls.__name__} has no id")
    if rule.id in _PROJECT_REGISTRY or rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _PROJECT_REGISTRY[rule.id] = rule
    return cls


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]


def all_rules() -> list[Rule]:
    """Registered rules, sorted by id for stable output."""
    # Importing the rules module populates the registry on first use.
    from repro.analysis.lint import rules as _rules  # noqa: F401

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def all_project_rules() -> list[ProjectRule]:
    """Registered whole-program rules, sorted by id."""
    from repro.analysis.flow import rules as _flow_rules  # noqa: F401

    return [_PROJECT_REGISTRY[k] for k in sorted(_PROJECT_REGISTRY)]


def check_source(
    source: str,
    path: str,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Check one module's source text; returns findings incl. suppressed.

    ``path`` is the repo-relative posix path rules scope on; it need not
    exist on disk (the self-tests lint fixture snippets under synthetic
    paths like ``src/repro/sim/fake.py``).
    """
    selected = list(all_rules() if rules is None else rules)
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    ctx = ModuleContext(
        path=path,
        tree=tree,
        lines=lines,
        suppressions=parse_suppressions(source),
    )
    findings: list[Finding] = []
    for rule in selected:
        if rule.applies(path):
            findings.extend(rule.check(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under the given files/directories, sorted."""
    seen: set[Path] = set()
    for p in paths:
        root = Path(p)
        if root.is_file():
            candidates: Iterable[Path] = [root] if root.suffix == ".py" else []
        else:
            candidates = sorted(root.rglob("*.py"))
        for f in candidates:
            if "__pycache__" in f.parts or f in seen:
                continue
            seen.add(f)
            yield f


def relative_posix(path: Path, root: Path | None = None) -> str:
    """``path`` as a posix path relative to ``root`` (default: cwd)."""
    base = Path.cwd() if root is None else root
    try:
        rel = path.resolve().relative_to(base.resolve())
    except ValueError:
        rel = Path(os.path.relpath(path, base))
    return rel.as_posix()


def check_paths(
    paths: Sequence[str | Path],
    rules: Iterable[Rule] | None = None,
    root: Path | None = None,
    on_error: Callable[[Path, SyntaxError], None] | None = None,
    project_rules: Iterable[ProjectRule] | None = None,
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
) -> tuple[list[Finding], list[Suppression]]:
    """Check every Python file under ``paths``.

    Two phases: per-module rules run file by file, then whole-program
    rules (``project_rules``; default: all registered) run once over
    every parsed module.  Unused suppressions are collected *after*
    both phases, so a suppression consumed by a project rule counts as
    used.  Returns ``(findings, unused_suppressions)``; findings
    include suppressed ones (reporters and the baseline decide what
    counts).  Unparseable files are reported through ``on_error`` and
    skipped — the linter must not crash on a file Python itself would
    reject, because CI runs it before the test suite.
    """
    selected = list(all_rules() if rules is None else rules)
    proj_selected = list(
        all_project_rules() if project_rules is None else project_rules
    )
    findings: list[Finding] = []
    contexts: list[ModuleContext] = []
    for file in iter_python_files(paths):
        rel = relative_posix(file, root)
        try:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            if on_error is not None:
                on_error(file, exc)
            continue
        ctx = ModuleContext(
            path=rel,
            tree=tree,
            lines=source.splitlines(),
            suppressions=parse_suppressions(source),
            source=source,
        )
        contexts.append(ctx)
        for rule in selected:
            if rule.applies(rel):
                findings.extend(rule.check(ctx))
        ctx.drop_index()  # the project rules read summaries, not nodes
    if proj_selected:
        pctx = ProjectContext(
            modules={c.path: c for c in contexts},
            root=root,
            cache_dir=Path(cache_dir) if cache_dir is not None else None,
            use_cache=use_cache,
        )
        for prule in proj_selected:
            findings.extend(prule.check_project(pctx))
    unused = [
        s
        for ctx in contexts
        for s in ctx.suppressions.values()
        if s.valid and not s.used
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, unused


def check_project_sources(
    sources: dict[str, str],
    project_rules: Iterable[ProjectRule] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Run whole-program rules over in-memory sources (for self-tests).

    ``sources`` maps synthetic repo-relative paths (``src/repro/...``)
    to module text.  The fact cache is disabled and, with no ``root``,
    no effects manifest is consulted.
    """
    selected = list(
        all_project_rules() if project_rules is None else project_rules
    )
    modules: dict[str, ModuleContext] = {}
    for path in sorted(sources):
        source = sources[path]
        modules[path] = ModuleContext(
            path=path,
            tree=ast.parse(source, filename=path),
            lines=source.splitlines(),
            suppressions=parse_suppressions(source),
            source=source,
        )
    pctx = ProjectContext(modules=modules, root=root, use_cache=False)
    findings: list[Finding] = []
    for prule in selected:
        findings.extend(prule.check_project(pctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
