"""The invariant rules.

Each rule encodes one contract the library documents elsewhere:

========================  =====================================================
``det-global-rng``        Seeds flow through :mod:`repro.utils.rng`; nothing
                          touches process-global RNG state.
``det-wallclock``         Result-affecting code never reads the wall clock.
``dep-runtime-scipy``     ``src/repro`` has no runtime scipy dependency.
``obs-neutrality``        Telemetry never participates in result identity,
                          and tracing costs nothing when disabled.
``vec-object-dtype``      Hot paths stay vectorized: no object arrays,
                          ``np.vectorize`` or ``np.append``.
``err-silent-except``     No silently swallowed exceptions.
========================  =====================================================

Seed threading and store-key purity were per-module rules here through
PR 8 (``api-seed-kwarg``, ``store-key-purity``); they are now enforced
by actual dataflow in the whole-program rules of
:mod:`repro.analysis.flow.rules` (``flow-seed-provenance``,
``flow-det-taint``, ``flow-effects``).

Scoping is by repo-relative path (the linter is run from the repo
root); fixture snippets in the self-tests pick their synthetic paths to
land inside or outside each rule's scope.

Rules query nodes by type through :meth:`ModuleContext.nodes`, which
serves every rule of a module from one walk, and read the module's
:class:`ImportMap`, which is built once per module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from repro.analysis.lint.core import Finding, ModuleContext, Rule, register

__all__ = [
    "ImportMap",
    "DetGlobalRng",
    "DetWallclock",
    "DepRuntimeScipy",
    "ObsNeutrality",
    "VecObjectDtype",
    "ErrSilentExcept",
]


@dataclass
class ImportMap:
    """What the module's import statements bound each local name to."""

    #: names bound to the ``numpy`` package (``import numpy as np``)
    numpy: set[str] = field(default_factory=set)
    #: names bound to ``numpy.random`` itself
    numpy_random: set[str] = field(default_factory=set)
    #: names bound to the stdlib ``random`` module
    py_random: set[str] = field(default_factory=set)
    #: names bound to the stdlib ``time`` module
    time: set[str] = field(default_factory=set)
    #: names bound to the stdlib ``datetime`` module
    datetime_mod: set[str] = field(default_factory=set)
    #: local name -> (source module, original name) for ``from m import x``
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def of(cls, ctx: ModuleContext) -> "ImportMap":
        """The module's import map, built on first use and shared by the
        rules through ``ctx.memo``.  Import statements are read in walk
        order, so a later binding of a name wins."""
        m = ctx.memo.get(cls)
        if m is not None:
            return m
        m = ctx.memo[cls] = cls()
        for node in ctx.nodes(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        m.numpy.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            m.numpy_random.add(bound)
                        else:  # ``import numpy.random`` binds ``numpy``
                            m.numpy.add(bound)
                    elif alias.name == "random":
                        m.py_random.add(bound)
                    elif alias.name == "time":
                        m.time.add(bound)
                    elif alias.name == "datetime":
                        m.datetime_mod.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "numpy" and alias.name == "random":
                        m.numpy_random.add(bound)
                    else:
                        m.from_imports[bound] = (node.module, alias.name)
        return m


def _in_src_repro(path: str) -> bool:
    return path.startswith("src/repro/")


def _call_name(func: ast.expr) -> str:
    """Best-effort dotted name of a call target, for matching."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = _call_name(func.value)
        return f"{base}.{func.attr}" if base else func.attr
    return ""


#: numpy.random attributes that are construction, not global state.
_SAFE_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: stdlib ``random`` attributes that do not touch the global instance.
_SAFE_PY_RANDOM = {"Random"}


@register
class DetGlobalRng(Rule):
    """Global RNG state breaks replayability: two call sites that share
    the hidden global stream are coupled through scheduling order, so
    the provenance manifest's root seed no longer pins the run."""

    id = "det-global-rng"
    summary = (
        "no np.random.* / random.* global-state calls; seeds flow through "
        "repro.utils.rng (RngFactory / spawn_rngs) as explicit Generators"
    )

    _ALLOW = ("src/repro/utils/rng.py",)

    def applies(self, path: str) -> bool:
        return path not in self._ALLOW

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap.of(ctx)
        for node in ctx.nodes(ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                recv = func.value
                # np.random.X(...) / numpy.random.X(...)
                is_np_random = (
                    isinstance(recv, ast.Attribute)
                    and recv.attr == "random"
                    and isinstance(recv.value, ast.Name)
                    and recv.value.id in imports.numpy
                ) or (isinstance(recv, ast.Name) and recv.id in imports.numpy_random)
                if is_np_random and func.attr not in _SAFE_NP_RANDOM:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"numpy global-RNG call np.random.{func.attr}(); "
                        "pass an explicit Generator from repro.utils.rng",
                    )
                elif (
                    isinstance(recv, ast.Name)
                    and recv.id in imports.py_random
                    and func.attr not in _SAFE_PY_RANDOM
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"stdlib global-RNG call random.{func.attr}(); "
                        "use a seeded numpy Generator instead",
                    )
            elif isinstance(func, ast.Name):
                origin = imports.from_imports.get(func.id)
                if origin is None:
                    continue
                module, name = origin
                if module == "random" and name not in _SAFE_PY_RANDOM:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"stdlib global-RNG call {name}() (from random import); "
                        "use a seeded numpy Generator instead",
                    )
                elif module == "numpy.random" and name not in _SAFE_NP_RANDOM:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"numpy global-RNG call {name}() (from numpy.random import); "
                        "pass an explicit Generator from repro.utils.rng",
                    )


@register
class DetWallclock(Rule):
    """Wall-clock reads in result-affecting code make re-runs diverge.
    Timing telemetry uses ``time.perf_counter`` (not flagged) and lives
    behind the metrics registry; only provenance/progress may stamp
    real dates."""

    id = "det-wallclock"
    summary = (
        "no time.time() / datetime.now() in result-affecting modules "
        "(allowlist: obs/provenance.py, obs/progress.py)"
    )

    _ALLOW = (
        "src/repro/obs/provenance.py",
        "src/repro/obs/progress.py",
    )
    _DT_METHODS: ClassVar[set[str]] = {"now", "utcnow", "today"}

    def applies(self, path: str) -> bool:
        return _in_src_repro(path) and path not in self._ALLOW

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap.of(ctx)
        for node in ctx.nodes(ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                recv = func.value
                if (
                    func.attr == "time"
                    and isinstance(recv, ast.Name)
                    and recv.id in imports.time
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        "wall-clock read time.time(); results must not depend on "
                        "when they are computed",
                    )
                elif func.attr in self._DT_METHODS and self._is_datetime_class(
                    recv, imports
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"wall-clock read datetime.{func.attr}(); results must not "
                        "depend on when they are computed",
                    )
            elif isinstance(func, ast.Name):
                origin = imports.from_imports.get(func.id)
                if origin == ("time", "time"):
                    yield ctx.finding(
                        self.id,
                        node,
                        "wall-clock read time() (from time import time); results "
                        "must not depend on when they are computed",
                    )

    @staticmethod
    def _is_datetime_class(recv: ast.expr, imports: ImportMap) -> bool:
        # ``datetime.now()`` via ``from datetime import datetime/date``
        if isinstance(recv, ast.Name):
            origin = imports.from_imports.get(recv.id)
            return origin is not None and origin[0] == "datetime"
        # ``datetime.datetime.now()`` via ``import datetime``
        return (
            isinstance(recv, ast.Attribute)
            and recv.attr in {"datetime", "date"}
            and isinstance(recv.value, ast.Name)
            and recv.value.id in imports.datetime_mod
        )


@register
class DepRuntimeScipy(Rule):
    """scipy is a test-only dependency: :func:`repro.utils.stats.gammaln`
    and :func:`repro.utils.stats.norm_ppf` cover the numerical needs, and
    keeping scipy off the import path keeps cold start fast and the
    runtime footprint small.  ``if TYPE_CHECKING:`` imports are exempt."""

    id = "dep-runtime-scipy"
    summary = "no runtime scipy imports under src/repro (tests may import it)"

    def applies(self, path: str) -> bool:
        return _in_src_repro(path)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        type_checking_only: set[int] = set()
        for node in ctx.nodes(ast.If):
            if self._is_type_checking(node.test):
                for sub in node.body:
                    for inner in ast.walk(sub):
                        type_checking_only.add(id(inner))
        for node in ctx.nodes(ast.Import, ast.ImportFrom):
            if id(node) in type_checking_only:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "scipy" or alias.name.startswith("scipy."):
                        yield ctx.finding(
                            self.id,
                            node,
                            f"runtime import of {alias.name}; use repro.utils.stats "
                            "(gammaln, norm_ppf) or move scipy into the tests",
                        )
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if node.level == 0 and (mod == "scipy" or mod.startswith("scipy.")):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"runtime import from {mod}; use repro.utils.stats "
                        "(gammaln, norm_ppf) or move scipy into the tests",
                    )

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )


#: substrings of an annotation that mark a field as telemetry-typed.
_TELEMETRY_ANNOTATIONS = ("Tracer", "Sink", "MetricsSnapshot", "MetricsRegistry")


@register
class ObsNeutrality(Rule):
    """Two halves of one contract (DESIGN.md, "Observability"):

    * telemetry attached to a ``*Result`` dataclass must opt out of
      equality (``compare=False``), so a traced run and an untraced run
      of the same seed compare equal;
    * tracer emission must use the hoisted guard from PR 2 —
      ``emit = tracer.emit if tracer.enabled else None`` once per run,
      ``if emit is not None: emit(...)`` per slot — so a disabled
      tracer costs one attribute read, not a method call per event;
    * span profiling (PR 8) follows the same discipline — ``begin =
      prof.begin if prof.enabled else None`` once per call, spans opened
      via ``begin(...) if begin is not None else None`` — so a direct
      ``prof.begin(...)``/``prof.end(...)`` attribute call outside
      :mod:`repro.obs` is a finding: it would allocate a span handle
      even when profiling is disabled.

    A field literally named ``trace`` is only flagged when its
    annotation is telemetry-typed: ``RunResult.trace`` is a
    :class:`~repro.analysis.trace.BroadcastTrace`, the *semantic*
    execution record, and must keep participating in equality.
    """

    id = "obs-neutrality"
    summary = (
        "telemetry fields on *Result dataclasses need compare=False; "
        "tracer.emit and profiler.begin/end go through hoisted enabled-guards"
    )

    _SPAN_METHODS: ClassVar[set[str]] = {"begin", "end"}

    def applies(self, path: str) -> bool:
        return _in_src_repro(path)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_result_fields(ctx)
        if not ctx.path.startswith("src/repro/obs/"):
            yield from self._check_emit_sites(ctx)
            yield from self._check_span_sites(ctx)

    def _check_result_fields(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.ClassDef):
            if not (
                node.name.endswith("Result")
                and any(self._is_dataclass_deco(d) for d in node.decorator_list)
            ):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ):
                    continue
                name = stmt.target.id
                ann = ast.unparse(stmt.annotation)
                telemetry_typed = any(t in ann for t in _TELEMETRY_ANNOTATIONS)
                if name not in {"metrics", "telemetry"} and not telemetry_typed:
                    continue
                if not self._has_compare_false(stmt.value):
                    yield ctx.finding(
                        self.id,
                        stmt,
                        f"telemetry field {node.name}.{name} must declare "
                        "field(..., compare=False) so telemetry never affects "
                        "result identity",
                    )

    def _check_emit_sites(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and self._is_tracer_expr(node.func.value)
            ):
                continue
            yield ctx.finding(
                self.id,
                node,
                "direct tracer.emit() call; hoist the guard once "
                "(emit = tracer.emit if tracer.enabled else None) and call "
                "emit(...) behind `if emit is not None`",
            )

    def _check_span_sites(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._SPAN_METHODS
                and self._is_profiler_expr(node.func.value)
            ):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"direct profiler.{node.func.attr}() call; hoist the guard once "
                "(begin = prof.begin if prof.enabled else None) and open spans "
                "via `begin(...) if begin is not None else None`",
            )

    @staticmethod
    def _is_dataclass_deco(deco: ast.expr) -> bool:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name):
            return target.id == "dataclass"
        return isinstance(target, ast.Attribute) and target.attr == "dataclass"

    @staticmethod
    def _has_compare_false(value: ast.expr | None) -> bool:
        if not (isinstance(value, ast.Call) and _call_name(value.func).endswith("field")):
            return False
        for kw in value.keywords:
            if kw.arg == "compare" and isinstance(kw.value, ast.Constant):
                return kw.value.value is False
        return False

    @staticmethod
    def _is_tracer_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return "tracer" in expr.id.lower()
        if isinstance(expr, ast.Attribute):
            return "tracer" in expr.attr.lower()
        if isinstance(expr, ast.Call):
            return _call_name(expr.func).endswith("get_tracer")
        return False

    @staticmethod
    def _is_profiler_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return "prof" in expr.id.lower()
        if isinstance(expr, ast.Attribute):
            return "prof" in expr.attr.lower()
        if isinstance(expr, ast.Call):
            name = _call_name(expr.func)
            return name.endswith(("profiler", "get_profiler"))
        return False


@register
class VecObjectDtype(Rule):
    """The PR-1 speedups depend on the hot paths staying vectorized:
    object arrays fall back to per-element Python dispatch,
    ``np.vectorize`` is a Python loop in disguise, and ``np.append``
    reallocates the whole array per call."""

    id = "vec-object-dtype"
    summary = (
        "no dtype=object, np.vectorize or np.append in hot-path modules "
        "(sim/engine.py, collision/*, geometry/*, the batch channel kernels "
        "in models/, network/topology.py)"
    )

    _HOT_PREFIXES = ("src/repro/collision/", "src/repro/geometry/")
    # The replication-batched engine made the channel kernels and the
    # stacked CSR builder first-class (R, nodes) hot paths.
    _HOT_FILES = (
        "src/repro/sim/engine.py",
        "src/repro/models/cam.py",
        "src/repro/models/cfm.py",
        "src/repro/models/channel.py",
        "src/repro/network/topology.py",
    )
    _BANNED_NP: ClassVar[set[str]] = {"vectorize", "append"}

    def applies(self, path: str) -> bool:
        return path in self._HOT_FILES or path.startswith(self._HOT_PREFIXES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap.of(ctx)
        for node in ctx.nodes(ast.Call):
            for kw in node.keywords:
                if kw.arg == "dtype" and self._is_object_dtype(kw.value, imports):
                    yield ctx.finding(
                        self.id,
                        node,
                        "object-dtype array in a hot-path module; object arrays "
                        "dispatch per element and defeat vectorization",
                    )
            banned = self._banned_call(node.func, imports)
            if banned:
                yield ctx.finding(
                    self.id,
                    node,
                    f"np.{banned}() in a hot-path module; "
                    + (
                        "it is a Python loop in disguise — write the array "
                        "expression directly"
                        if banned == "vectorize"
                        else "it reallocates per call — preallocate or collect "
                        "then np.concatenate once"
                    ),
                )

    @staticmethod
    def _is_object_dtype(value: ast.expr, imports: ImportMap) -> bool:
        if isinstance(value, ast.Name) and value.id == "object":
            return True
        if isinstance(value, ast.Constant) and value.value == "object":
            return True
        return (
            isinstance(value, ast.Attribute)
            and value.attr in {"object_", "object"}
            and isinstance(value.value, ast.Name)
            and value.value.id in imports.numpy
        )

    def _banned_call(self, func: ast.expr, imports: ImportMap) -> str:
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._BANNED_NP
            and isinstance(func.value, ast.Name)
            and func.value.id in imports.numpy
        ):
            return func.attr
        if isinstance(func, ast.Name):
            origin = imports.from_imports.get(func.id)
            if origin is not None and origin[0] == "numpy" and origin[1] in self._BANNED_NP:
                return origin[1]
        return ""


@register
class ErrSilentExcept(Rule):
    """A swallowed exception turns a wrong answer into a quiet one.
    Catch narrowly, or handle visibly."""

    id = "err-silent-except"
    summary = "no bare `except:` and no `except Exception: pass` under src/"

    _BROAD: ClassVar[set[str]] = {"Exception", "BaseException"}

    def applies(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.ExceptHandler):
            if node.type is None:
                yield ctx.finding(
                    self.id,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "name the exceptions you mean",
                )
            elif self._is_broad(node.type) and self._is_silent(node.body):
                yield ctx.finding(
                    self.id,
                    node,
                    "except Exception with an empty body silently swallows "
                    "errors; narrow the type or handle it visibly",
                )

    def _is_broad(self, type_node: ast.expr) -> bool:
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(e) for e in type_node.elts)
        name = _call_name(type_node)
        return name.split(".")[-1] in self._BROAD

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare ``...``
            return False
        return True
