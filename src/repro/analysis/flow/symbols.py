"""Project-wide symbol table and name resolution.

:class:`Project` assembles the per-module summaries produced by
:mod:`repro.analysis.flow.summary` into one namespace: every function
and method gets a fully-qualified name (``repro.sim.engine.run_broadcast``,
``repro.sim.desimpl.DesBroadcast.run``, ``repro.obs.spans.<module>``),
classes get merged method tables over their project-local MRO, and
:meth:`Project.resolve_call` turns a :class:`CallSite` into concrete
targets.

Resolution handles the shapes this codebase actually uses:

* module imports and aliases (``import numpy as np`` →
  ``np.random.default_rng`` resolves to ``numpy.random.default_rng``);
* ``from``-imports, including one-level re-export chasing
  (``repro.store.task_key`` chases the package ``__init__`` binding to
  ``repro.store.keys.task_key``);
* function-local lazy imports (``sim.runner`` imports ``task_key``
  inside function bodies);
* ``self.method()`` with a project-local MRO walk;
* higher-order calls: a call through a parameter resolves to the
  union of project functions passed to that parameter at any project
  call site (``parallel_map(_run_block, ...)`` makes calls through the
  callback parameter reach ``_run_block``);
* value-method calls (``rng.integers(...)``, ``cell.spawn(2)``) reduce
  to a bare method name plus receiver roots — the analyses interpret
  those (generator methods, ``spawn``, duck-typed effect lookup).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.flow.summary import (
    MODULE_SCOPE,
    CallSite,
    FunctionSummary,
    ModuleSummary,
)

__all__ = ["FlowFunction", "ResolvedCall", "Project"]

#: Re-export chase depth bound; package ``__init__`` chains are short.
_CHASE_LIMIT = 5


@dataclass
class FlowFunction:
    """One function in project scope."""

    fq: str  #: fully-qualified name ("repro.sim.engine.run_broadcast")
    module: ModuleSummary
    summary: FunctionSummary


@dataclass
class ResolvedCall:
    """Concrete interpretation of one call site.

    ``project_targets`` — fully-qualified project functions the call may
    reach (several for higher-order parameters).  ``external`` — the
    canonical dotted name of a non-project callee ("" when the call is
    project-internal or opaque).  ``method_name`` — bare method name for
    value-method calls (``rng.integers`` → ``integers``); also set for
    calls of locals bound from attributes (the hoisted ``emit = t.emit``
    pattern reduces ``emit(...)`` to method name ``emit``).
    ``constructor_of`` — fully-qualified class name when the call
    instantiates a project class.  ``bound`` — True when positional
    argument 0 maps to the callee's second parameter (self-calls,
    method lookups, constructors).
    """

    project_targets: list[str] = field(default_factory=list)
    external: str = ""
    method_name: str = ""
    constructor_of: str = ""
    bound: bool = False


class Project:
    """Symbol table + resolver over a set of module summaries."""

    def __init__(self, summaries: list[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {
            ms.module: ms for ms in summaries if ms.module
        }
        self.functions: dict[str, FlowFunction] = {}
        #: FQ class -> method name -> FQ function (own methods only)
        self._own_methods: dict[str, dict[str, str]] = {}
        #: FQ class -> base-class dotted texts (unresolved)
        self._raw_bases: dict[str, list[str]] = {}
        #: method name -> sorted FQ methods (duck-typed effect lookup)
        self.method_index: dict[str, list[str]] = {}
        #: (callee FQ, param name) -> FQ functions passed to that param
        self.param_callables: dict[tuple[str, str], set[str]] = {}
        self._merged_methods: dict[str, dict[str, str]] = {}

        for ms in summaries:
            if not ms.module:
                continue
            for cls_name, bases in ms.class_bases.items():
                fq_cls = f"{ms.module}.{cls_name}"
                self._raw_bases[fq_cls] = bases
                self._own_methods.setdefault(fq_cls, {})
            for fn in ms.functions:
                fq = f"{ms.module}.{fn.qualname}"
                self.functions[fq] = FlowFunction(fq=fq, module=ms, summary=fn)
                if fn.class_name and not fn.parent:
                    fq_cls = f"{ms.module}.{fn.class_name}"
                    self._own_methods.setdefault(fq_cls, {})[fn.name] = fq
        for methods in self._own_methods.values():
            for name, fq in methods.items():
                self.method_index.setdefault(name, []).append(fq)
        for name in self.method_index:
            self.method_index[name].sort()
        self._build_param_callables()

    # -- classes -------------------------------------------------------

    @property
    def classes(self) -> dict[str, dict[str, str]]:
        return {cls: self.methods_of(cls) for cls in self._own_methods}

    def methods_of(self, fq_cls: str) -> dict[str, str]:
        """Merged method table of a class over its project-local MRO."""
        memo = self._merged_methods
        if fq_cls in memo:
            return memo[fq_cls]
        memo[fq_cls] = {}  # cycle guard: recursive base sees empty table
        merged: dict[str, str] = {}
        module = fq_cls.rsplit(".", 1)[0]
        ms = self.modules.get(module)
        cls_name = fq_cls.rsplit(".", 1)[1]
        for base_text in (ms.class_bases.get(cls_name, []) if ms else []):
            base_fq = self._resolve_class_text(ms, base_text) if ms else None
            if base_fq is not None:
                for name, fn in self.methods_of(base_fq).items():
                    merged.setdefault(name, fn)
        merged.update(self._own_methods.get(fq_cls, {}))
        memo[fq_cls] = merged
        return merged

    def _resolve_class_text(self, ms: ModuleSummary, text: str) -> str | None:
        head, _, rest = text.partition(".")
        dotted = ms.bindings.get(head, head)
        full = f"{dotted}.{rest}" if rest else dotted
        full = self._chase(full)
        return full if full in self._own_methods else None

    def lookup_method(self, fq_cls: str, name: str) -> str | None:
        return self.methods_of(fq_cls).get(name)

    # -- call resolution -----------------------------------------------

    def resolve_call(self, fn: FlowFunction, site: CallSite) -> ResolvedCall:
        target = site.target
        if not target:
            # complex callee expression (subscript, call result, lambda)
            return ResolvedCall()
        parts = target.split(".")
        head, rest = parts[0], parts[1:]
        s = fn.summary

        if head == "self" and s.class_name:
            if len(rest) == 1:
                fq_cls = f"{fn.module.module}.{s.class_name}"
                meth = self.lookup_method(fq_cls, rest[0])
                if meth is not None:
                    return ResolvedCall([meth], bound=True)
            return ResolvedCall(method_name=rest[-1] if rest else "", bound=True)

        scope = self._scope_lookup(fn, head)
        if scope is not None:
            kind, value = scope
            if kind == "fn":
                if rest:  # attribute of a function object — opaque
                    return ResolvedCall(method_name=rest[-1])
                return ResolvedCall([value]) if value in self.functions else ResolvedCall()
            if kind == "param":
                if rest:
                    return ResolvedCall(method_name=rest[-1])
                cands = sorted(self.param_callables.get((fn.fq, head), ()))
                return ResolvedCall(cands, method_name=head if not cands else "")
            if kind == "local":
                # calling a local value: a stored callable (method name =
                # the local's own name, for the hoisted-guard pattern) or
                # a method on it (rng.integers → integers)
                return ResolvedCall(method_name=rest[-1] if rest else head)
            dotted = value  # kind == "dotted"
        else:
            dotted = head  # builtin or late-bound global

        full = ".".join([dotted, *rest]) if rest else dotted
        return self._resolve_dotted(full, method_fallback=rest[-1] if rest else "")

    def _scope_lookup(
        self, fn: FlowFunction, name: str
    ) -> tuple[str, str] | None:
        """Resolve a bare name in a function's scope chain.

        Returns ``(kind, value)`` with kind one of ``fn`` (project
        function FQ), ``param``, ``local``, ``dotted`` (canonical dotted
        prefix) — or None for builtins/unknowns.
        """
        s: FunctionSummary | None = fn.summary
        first = True
        while s is not None:
            if name in s.local_imports:
                return ("dotted", s.local_imports[name])
            if name in s.local_funcs:
                return ("fn", f"{fn.module.module}.{s.local_funcs[name]}")
            if name in s.params:
                return ("param", name) if first else ("local", name)
            if name in s.derive and s.qualname != MODULE_SCOPE:
                return ("local", name)
            parent = s.parent
            s = None
            first = False
            if parent:
                pf = self.functions.get(f"{fn.module.module}.{parent}")
                s = pf.summary if pf is not None else None
        if name in fn.module.bindings:
            bound = fn.module.bindings[name]
            own_prefix = f"{fn.module.module}." if fn.module.module else ""
            if own_prefix and bound == f"{own_prefix}{name}":
                fq = bound
                if fq in self.functions:
                    return ("fn", fq)
                if fq in self._own_methods:
                    return ("dotted", fq)  # own class → constructor path
                return ("dotted", fq)  # module constant: opaque dotted
            return ("dotted", bound)
        return None

    def _chase(self, full: str) -> str:
        """Follow re-export bindings (``pkg.name`` → ``pkg.mod.name``)."""
        for _ in range(_CHASE_LIMIT):
            module, _, last = full.rpartition(".")
            ms = self.modules.get(module)
            if ms is None or last not in ms.bindings:
                return full
            bound = ms.bindings[last]
            if bound == full:
                return full
            full = bound
        return full

    def _resolve_dotted(self, full: str, method_fallback: str = "") -> ResolvedCall:
        full = self._chase(full)
        if full in self.functions:
            return ResolvedCall([full])
        if full in self._own_methods:
            init = self.lookup_method(full, "__init__")
            return ResolvedCall(
                [init] if init else [], constructor_of=full, bound=True
            )
        # Cls.method referenced as a dotted path (unbound)
        module, _, last = full.rpartition(".")
        if module in self._own_methods:
            meth = self.lookup_method(module, last)
            if meth is not None:
                return ResolvedCall([meth], bound=False)
        if full.split(".", 1)[0] == "repro":
            # a project path that resolves to nothing callable (constant,
            # missing attr): opaque, but keep the method name for duck use
            return ResolvedCall(method_name=method_fallback)
        return ResolvedCall(external=full, method_name=method_fallback)

    # -- higher-order parameter candidates -----------------------------

    def resolve_value_callable(self, fn: FlowFunction, root: str) -> str | None:
        """Project function a ``g:``/``l:`` root refers to, if any."""
        if not root.startswith(("g:", "l:")):
            return None
        name = root[2:]
        scope = self._scope_lookup(fn, name)
        if scope is None:
            return None
        kind, value = scope
        if kind == "fn":
            return value if value in self.functions else None
        if kind == "dotted":
            resolved = self._resolve_dotted(value)
            if len(resolved.project_targets) == 1 and not resolved.constructor_of:
                return resolved.project_targets[0]
        return None

    def _build_param_callables(self) -> None:
        # Iterate to a fixed point so a callable forwarded through two
        # higher-order layers still resolves; converges in 2-3 rounds.
        for _ in range(4):
            before = sum(len(v) for v in self.param_callables.values())
            self._param_callables_pass()
            if sum(len(v) for v in self.param_callables.values()) == before:
                return

    def _param_callables_pass(self) -> None:
        for fn in self.functions.values():
            # defaults: param derive roots that name project functions
            for param in fn.summary.params:
                for root in fn.summary.derive.get(param, []):
                    cand = self.resolve_value_callable(fn, root)
                    if cand is not None:
                        self.param_callables.setdefault(
                            (fn.fq, param), set()
                        ).add(cand)
            for site in fn.summary.calls:
                resolved = self.resolve_call(fn, site)
                for callee_fq in resolved.project_targets:
                    callee = self.functions.get(callee_fq)
                    if callee is None:
                        continue
                    params = callee.summary.params
                    offset = 1 if (resolved.bound and params and params[0] in ("self", "cls")) else 0
                    for i, roots in enumerate(site.arg_roots):
                        idx = i + offset
                        if idx >= len(params):
                            break
                        self._note_callable_args(fn, callee_fq, params[idx], roots)
                    for kw, roots in site.kwarg_roots.items():
                        if kw in params:
                            self._note_callable_args(fn, callee_fq, kw, roots)

    def _note_callable_args(
        self, fn: FlowFunction, callee_fq: str, param: str, roots: list[str]
    ) -> None:
        for root in roots:
            cand = self.resolve_value_callable(fn, root)
            if cand is not None:
                self.param_callables.setdefault((callee_fq, param), set()).add(cand)
