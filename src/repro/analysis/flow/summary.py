"""Per-module fact extraction for the whole-program flow analyses.

One pass over a module's AST produces a :class:`ModuleSummary` — a
plain-data description of everything the project-wide analyses need:
import bindings, function/method signatures, flow-insensitive def-use
derivations, call sites with per-argument derivation roots, return
derivations, self-attribute assignments, and module-global mutations.

Summaries are deliberately *closed* data (strings, ints, lists, dicts)
so they serialize losslessly to JSON: the incremental cache
(:mod:`repro.analysis.flow.cache`) stores one summary per source file,
keyed by content hash, and a cache hit must reproduce the cold-run
analysis byte for byte.

Derivation roots
----------------
Every expression reduces to a set of *roots* — the places its value
could have come from.  Roots are tagged strings:

``p:name``
    A parameter of the enclosing function.
``l:name``
    A local variable (resolved through the function's ``derive`` map).
``c:index``
    The result of call site ``index`` in the enclosing function.
``s:attr``
    ``self.attr`` inside a method.
``g:name``
    A module-level binding (import, def, class, or module constant).
``x:name``
    A free (closure) name inside a nested function.

The reduction is flow-insensitive (assignments union) and loses
precision on purpose — container element vs. container, attribute vs.
base object — erring toward *more* derivation, which is the
conservative direction for provenance and taint.  One deliberate
exception: dict *literal* keys do not contribute roots (``{id(x): r}``
is an identity-keyed lookup table; subscripting it returns values, and
py3.7+ dict iteration is insertion-ordered), while dict values, list,
tuple and set elements all do.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "CallSite",
    "FunctionSummary",
    "ModuleSummary",
    "extract_module",
    "module_name_for_path",
]

MODULE_SCOPE = "<module>"


@dataclass
class CallSite:
    """One call expression inside a function scope."""

    index: int  #: position in :attr:`FunctionSummary.calls`
    target: str  #: dotted source text of the callee ("np.random.default_rng")
    recv: str  #: dotted text of the receiver for attribute calls, else ""
    recv_roots: list[str] = field(default_factory=list)
    arg_roots: list[list[str]] = field(default_factory=list)
    kwarg_roots: dict[str, list[str]] = field(default_factory=dict)
    #: literal-argument tags parallel to arg_roots: "int" | "none" |
    #: "const" | "" (non-literal)
    arg_consts: list[str] = field(default_factory=list)
    kwarg_consts: dict[str, str] = field(default_factory=dict)
    lineno: int = 0
    col: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "target": self.target,
            "recv": self.recv,
            "recv_roots": self.recv_roots,
            "arg_roots": self.arg_roots,
            "kwarg_roots": self.kwarg_roots,
            "arg_consts": self.arg_consts,
            "kwarg_consts": self.kwarg_consts,
            "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CallSite":
        return cls(
            index=d["index"],
            target=d["target"],
            recv=d["recv"],
            recv_roots=list(d["recv_roots"]),
            arg_roots=[list(a) for a in d["arg_roots"]],
            kwarg_roots={k: list(v) for k, v in d["kwarg_roots"].items()},
            arg_consts=list(d["arg_consts"]),
            kwarg_consts=dict(d["kwarg_consts"]),
            lineno=d["lineno"],
            col=d["col"],
        )


@dataclass
class FunctionSummary:
    """Flow facts for one function, method, or the module scope."""

    qualname: str  #: dotted within the module ("Cls.meth", "f.<locals>.g")
    name: str
    class_name: str = ""  #: innermost enclosing class, "" at module level
    parent: str = ""  #: enclosing function qualname for nested defs
    lineno: int = 0
    col: int = 0
    params: list[str] = field(default_factory=list)
    #: params whose default is a literal int (param, lineno, col)
    int_default_params: list[tuple[str, int, int]] = field(default_factory=list)
    return_annotation: str = ""
    derive: dict[str, list[str]] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)
    returns: list[list[str]] = field(default_factory=list)
    #: ``self.attr = value`` assignments: attr -> union of value roots
    self_assigns: dict[str, list[str]] = field(default_factory=dict)
    #: module-level names this function rebinds or mutates (name, line, col)
    globals_written: list[tuple[str, int, int]] = field(default_factory=list)
    #: for-loop / comprehension bindings: (targets, iter roots, line, col)
    loops: list[tuple[list[str], list[str], int, int]] = field(default_factory=list)
    #: names bound by function-local import statements: name -> dotted target
    local_imports: dict[str, str] = field(default_factory=dict)
    #: nested function defs visible in this scope: name -> module qualname
    local_funcs: dict[str, str] = field(default_factory=dict)
    #: local names whose value is definitely a set (literal/comprehension/set())
    set_typed: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "class_name": self.class_name,
            "parent": self.parent,
            "lineno": self.lineno,
            "col": self.col,
            "params": self.params,
            "int_default_params": [list(t) for t in self.int_default_params],
            "return_annotation": self.return_annotation,
            "derive": self.derive,
            "calls": [c.to_dict() for c in self.calls],
            "returns": self.returns,
            "self_assigns": self.self_assigns,
            "globals_written": [list(t) for t in self.globals_written],
            "loops": [list(t) for t in self.loops],
            "local_imports": self.local_imports,
            "local_funcs": self.local_funcs,
            "set_typed": self.set_typed,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=d["qualname"],
            name=d["name"],
            class_name=d["class_name"],
            parent=d["parent"],
            lineno=d["lineno"],
            col=d["col"],
            params=list(d["params"]),
            int_default_params=[
                (t[0], t[1], t[2]) for t in d["int_default_params"]
            ],
            return_annotation=d["return_annotation"],
            derive={k: list(v) for k, v in d["derive"].items()},
            calls=[CallSite.from_dict(c) for c in d["calls"]],
            returns=[list(r) for r in d["returns"]],
            self_assigns={k: list(v) for k, v in d["self_assigns"].items()},
            globals_written=[(t[0], t[1], t[2]) for t in d["globals_written"]],
            loops=[(list(t[0]), list(t[1]), t[2], t[3]) for t in d["loops"]],
            local_imports=dict(d["local_imports"]),
            local_funcs=dict(d["local_funcs"]),
            set_typed=list(d["set_typed"]),
        )


@dataclass
class ModuleSummary:
    """Everything the project analyses need from one module."""

    path: str  #: repo-relative posix path
    module: str  #: dotted module name ("repro.sim.engine")
    #: module-level name -> dotted target for imports, or the module's
    #: own dotted qualname for defs/classes/constants
    bindings: dict[str, str] = field(default_factory=dict)
    #: names assigned at module level (mutation targets for globals)
    module_names: list[str] = field(default_factory=list)
    #: class name -> list of base-class dotted source texts
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    functions: list[FunctionSummary] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "bindings": self.bindings,
            "module_names": self.module_names,
            "class_bases": self.class_bases,
            "functions": [f.to_dict() for f in self.functions],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ModuleSummary":
        return cls(
            path=d["path"],
            module=d["module"],
            bindings=dict(d["bindings"]),
            module_names=list(d["module_names"]),
            class_bases={k: list(v) for k, v in d["class_bases"].items()},
            functions=[FunctionSummary.from_dict(f) for f in d["functions"]],
        )


def module_name_for_path(path: str) -> str:
    """Dotted module name of a repo-relative source path.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``src/repro/obs/__init__.py`` -> ``repro.obs``.  Returns "" for
    paths outside a recognized source root.
    """
    p = path.replace("\\", "/")
    if p.startswith("src/"):
        p = p[len("src/") :]
    elif "/" in p and not p.startswith(("repro/",)):
        return ""
    if not p.endswith(".py"):
        return ""
    parts = p[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(part.isidentifier() for part in parts):
        return ""
    if parts[0] != "repro":
        return ""  # only the project package participates in flow analysis
    return ".".join(parts)


def _dotted(expr: ast.expr) -> str:
    """Dotted source text of a name chain, "" when any link is complex."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return f"{base}.{expr.attr}" if base else ""
    return ""


def _const_tag(node: ast.expr) -> str:
    if _is_literal_int(node):
        return "int"
    if isinstance(node, ast.Constant):
        return "none" if node.value is None else "const"
    return ""


def _is_literal_int(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


def _collect_locals(node: ast.AST) -> set[str]:
    """Names bound in a function body (excluding nested scopes)."""
    names: set[str] = set()
    explicit_nonlocal: set[str] = set()

    def visit(n: ast.AST) -> None:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(n.name)
            return  # own scope
        if isinstance(n, ast.ClassDef):
            names.add(n.name)
            return
        if isinstance(n, ast.Lambda):
            return
        if isinstance(n, (ast.Global, ast.Nonlocal)):
            explicit_nonlocal.update(n.names)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        for child in ast.iter_child_nodes(n):
            visit(child)

    for stmt in ast.iter_child_nodes(node):
        visit(stmt)
    return names - explicit_nonlocal


class _ScopeExtractor:
    """Extracts one :class:`FunctionSummary` from one scope's statements."""

    def __init__(
        self,
        summary: FunctionSummary,
        module_names: set[str],
        local_names: set[str],
        enclosing_locals: set[str],
        is_module_scope: bool,
    ) -> None:
        self.s = summary
        self.module_names = module_names
        self.local_names = local_names
        self.enclosing_locals = enclosing_locals
        self.is_module_scope = is_module_scope
        self.global_decls: set[str] = set()

    # -- root reduction ------------------------------------------------

    def name_root(self, name: str) -> str:
        if name in self.s.params:
            return f"p:{name}"
        if name in self.local_names:
            return f"l:{name}"
        if self.is_module_scope or name in self.module_names:
            return f"g:{name}"
        if name in self.enclosing_locals:
            return f"x:{name}"
        return f"g:{name}"  # builtin or late-bound global

    def roots(self, expr: ast.expr | None) -> list[str]:
        """Derivation roots of an expression; registers nested calls."""
        if expr is None:
            return []
        out: list[str] = []
        self._roots_into(expr, out)
        # de-duplicate, preserving first-seen order for stable output
        seen: set[str] = set()
        uniq = []
        for r in out:
            if r not in seen:
                seen.add(r)
                uniq.append(r)
        return uniq

    def _roots_into(self, expr: ast.expr, out: list[str]) -> None:
        if isinstance(expr, ast.Name):
            out.append(self.name_root(expr.id))
        elif isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                out.append(f"s:{expr.attr}")
            else:
                self._roots_into(expr.value, out)
        elif isinstance(expr, ast.Call):
            site = self._register_call(expr)
            out.append(f"c:{site.index}")
        elif isinstance(expr, ast.Constant):
            pass
        elif isinstance(expr, ast.Dict):
            # Keys are lookup labels, not payload (see module docstring).
            for v in expr.values:
                if v is not None:
                    self._roots_into(v, out)
        elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for e in expr.elts:
                self._roots_into(e, out)
        elif isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._comprehension(expr.generators, [expr.elt], out)
        elif isinstance(expr, ast.DictComp):
            self._comprehension(expr.generators, [expr.value], out)
        elif isinstance(expr, ast.BoolOp):
            for v in expr.values:
                self._roots_into(v, out)
        elif isinstance(expr, ast.BinOp):
            self._roots_into(expr.left, out)
            self._roots_into(expr.right, out)
        elif isinstance(expr, ast.UnaryOp):
            self._roots_into(expr.operand, out)
        elif isinstance(expr, ast.Compare):
            self._roots_into(expr.left, out)
            for c in expr.comparators:
                self._roots_into(c, out)
        elif isinstance(expr, ast.IfExp):
            self._roots_into(expr.body, out)
            self._roots_into(expr.orelse, out)
            self._roots_into(expr.test, out)
        elif isinstance(expr, ast.Subscript):
            self._roots_into(expr.value, out)
            # The index selects an element; the element's value comes
            # from the container, not the index (same rationale as dict
            # keys above).  Still walk it so calls inside register.
            self._roots_into(expr.slice, [])
        elif isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self._roots_into(part, out)
        elif isinstance(expr, ast.Starred):
            self._roots_into(expr.value, out)
        elif isinstance(expr, ast.JoinedStr):
            for v in expr.values:
                self._roots_into(v, out)
        elif isinstance(expr, ast.FormattedValue):
            self._roots_into(expr.value, out)
        elif isinstance(expr, ast.NamedExpr):
            roots = self.roots(expr.value)
            if isinstance(expr.target, ast.Name):
                self._bind(expr.target.id, roots)
                out.append(self.name_root(expr.target.id))
            out.extend(roots)
        elif isinstance(expr, ast.Lambda):
            pass  # opaque: lambdas carry no analyzed flow
        elif isinstance(expr, ast.Await):
            self._roots_into(expr.value, out)
        # else: yield/yieldfrom/etc. — no roots

    def _comprehension(
        self,
        generators: Iterable[ast.comprehension],
        produced: Iterable[ast.expr],
        out: list[str],
    ) -> None:
        for gen in generators:
            iter_roots = self.roots(gen.iter)
            targets = [
                n.id for n in ast.walk(gen.target) if isinstance(n, ast.Name)
            ]
            for t in targets:
                self.local_names.add(t)
                self._bind(t, iter_roots)
            self.s.loops.append(
                (targets, iter_roots, gen.iter.lineno, gen.iter.col_offset)
            )
            out.extend(iter_roots)
            for cond in gen.ifs:
                self.roots(cond)
        for expr in produced:
            self._roots_into(expr, out)

    # -- statement handling --------------------------------------------

    def _bind(self, name: str, roots: list[str]) -> None:
        bucket = self.s.derive.setdefault(name, [])
        for r in roots:
            if r not in bucket:
                bucket.append(r)

    def _register_call(self, call: ast.Call) -> CallSite:
        target = _dotted(call.func)
        recv = ""
        recv_roots: list[str] = []
        if isinstance(call.func, ast.Attribute):
            recv = _dotted(call.func.value)
            recv_roots = self.roots(call.func.value)
        site = CallSite(
            index=len(self.s.calls),
            target=target,
            recv=recv,
            recv_roots=recv_roots,
            lineno=call.lineno,
            col=call.col_offset,
        )
        self.s.calls.append(site)
        for arg in call.args:
            site.arg_roots.append(self.roots(arg))
            site.arg_consts.append(_const_tag(arg))
        for kw in call.keywords:
            roots = self.roots(kw.value)
            if kw.arg is None:  # **kwargs: merge into every-kwarg bucket
                site.kwarg_roots.setdefault("**", []).extend(roots)
            else:
                site.kwarg_roots[kw.arg] = roots
                site.kwarg_consts[kw.arg] = _const_tag(kw.value)
        return site

    def _mutation_target_root(self, target: ast.expr) -> str | None:
        """Module-level name a store/mutation ultimately lands on."""
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.global_decls:
                return name
            is_local = (
                name in self.local_names
                or name in self.s.params
                or self.is_module_scope
            )
            if not is_local and name in self.module_names:
                return name
        return None

    def _record_set_typed(self, name: str, value: ast.expr) -> None:
        if isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and _dotted(value.func) in {"set", "frozenset"}
        ):
            if name not in self.s.set_typed:
                self.s.set_typed.append(name)

    def _assign_to(self, target: ast.expr, roots: list[str], value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, roots)
            if value is not None:
                self._record_set_typed(target.id, value)
            if target.id in self.global_decls:
                self.s.globals_written.append(
                    (target.id, target.lineno, target.col_offset)
                )
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                bucket = self.s.self_assigns.setdefault(target.attr, [])
                for r in roots:
                    if r not in bucket:
                        bucket.append(r)
            else:
                g = self._mutation_target_root(target)
                if g is not None:
                    self.s.globals_written.append(
                        (g, target.lineno, target.col_offset)
                    )
                self.roots(target.value)
        elif isinstance(target, ast.Subscript):
            g = self._mutation_target_root(target)
            if g is not None:
                self.s.globals_written.append((g, target.lineno, target.col_offset))
            # d[k] = v also makes d derive from v
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                self._bind(base.id, roots)
            self.roots(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_to(elt, roots, None)
        elif isinstance(target, ast.Starred):
            self._assign_to(target.value, roots, None)

    def handle_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            roots = self.roots(stmt.value)
            for target in stmt.targets:
                self._assign_to(target, roots, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_to(stmt.target, self.roots(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._assign_to(stmt.target, self.roots(stmt.value), None)
            if isinstance(stmt.target, ast.Name):
                if stmt.target.id in self.global_decls:
                    self.s.globals_written.append(
                        (stmt.target.id, stmt.lineno, stmt.col_offset)
                    )
        elif isinstance(stmt, ast.Return):
            self.s.returns.append(self.roots(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.roots(stmt.value)
        elif isinstance(stmt, ast.For):
            iter_roots = self.roots(stmt.iter)
            targets = [
                n.id for n in ast.walk(stmt.target) if isinstance(n, ast.Name)
            ]
            for t in targets:
                self._bind(t, iter_roots)
            self.s.loops.append(
                (targets, iter_roots, stmt.iter.lineno, stmt.iter.col_offset)
            )
            for sub in stmt.body + stmt.orelse:
                self.handle_stmt(sub)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.roots(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self.handle_stmt(sub)
        elif isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                roots = self.roots(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_to(item.optional_vars, roots, None)
            for sub in stmt.body:
                self.handle_stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self.handle_stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self.handle_stmt(sub)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.roots(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.roots(stmt.test)
            if stmt.msg is not None:
                self.roots(stmt.msg)
        elif isinstance(stmt, ast.Global):
            self.global_decls.update(stmt.names)
        elif isinstance(stmt, ast.Delete):
            pass
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._handle_import(stmt)
        # FunctionDef / ClassDef are handled by the module walker.

    def _handle_import(self, stmt: ast.Import | ast.ImportFrom) -> None:
        imports = self.s.local_imports if not self.is_module_scope else None
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if isinstance(stmt, ast.Import):
                target = alias.name if alias.asname else alias.name.split(".")[0]
            else:
                if stmt.level or not stmt.module:
                    continue  # relative imports unused in this codebase
                target = f"{stmt.module}.{alias.name}"
            if imports is not None:
                imports[bound] = target


def _extract_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleSummary,
    module_names: set[str],
    qual_prefix: str,
    class_name: str,
    parent: str,
    enclosing_locals: set[str],
    out: list[FunctionSummary],
) -> None:
    qualname = f"{qual_prefix}{node.name}"
    args = node.args
    params = [
        a.arg
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    ]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    summary = FunctionSummary(
        qualname=qualname,
        name=node.name,
        class_name=class_name,
        parent=parent,
        lineno=node.lineno,
        col=node.col_offset,
        params=params,
        return_annotation=(
            ast.unparse(node.returns) if node.returns is not None else ""
        ),
    )
    positional = [*args.posonlyargs, *args.args]
    tail = positional[len(positional) - len(args.defaults) :]
    defaulted = [
        *zip(tail, args.defaults, strict=True),
        *(
            (a, d)
            for a, d in zip(args.kwonlyargs, args.kw_defaults, strict=True)
            if d is not None
        ),
    ]
    local_names = _collect_locals(node)
    extractor = _ScopeExtractor(
        summary,
        module_names,
        local_names,
        enclosing_locals,
        is_module_scope=False,
    )
    for arg, default in defaulted:
        if _is_literal_int(default):
            summary.int_default_params.append(
                (arg.arg, default.lineno, default.col_offset)
            )
        extractor._bind(arg.arg, extractor.roots(default))
    for deco in node.decorator_list:
        extractor.roots(deco)
    # Nested defs: record visibility, then extract them as siblings.
    nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_qual = f"{qualname}.<locals>.{stmt.name}"
            summary.local_funcs[stmt.name] = nested_qual
            nested.append(stmt)
        else:
            extractor.handle_stmt(stmt)
    out.append(summary)
    for stmt in nested:
        _extract_function(
            stmt,
            module,
            module_names,
            f"{qualname}.<locals>.",
            class_name,
            qualname,
            enclosing_locals | local_names | set(params),
            out,
        )


def extract_module(source_tree: ast.Module, path: str, module: str | None = None) -> ModuleSummary:
    """Extract the flow summary of one parsed module."""
    mod_name = module if module is not None else module_name_for_path(path)
    ms = ModuleSummary(path=path, module=mod_name)

    # Pass 1: module-level bindings (imports, defs, classes, constants).
    for stmt in source_tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                ms.bindings[bound] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level or not stmt.module:
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name
                ms.bindings[bound] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ms.bindings[stmt.name] = f"{mod_name}.{stmt.name}" if mod_name else stmt.name
        elif isinstance(stmt, ast.ClassDef):
            ms.bindings[stmt.name] = f"{mod_name}.{stmt.name}" if mod_name else stmt.name
            ms.class_bases[stmt.name] = [
                b for b in (_dotted(base) for base in stmt.bases) if b
            ]
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        ms.bindings.setdefault(
                            n.id, f"{mod_name}.{n.id}" if mod_name else n.id
                        )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ms.bindings.setdefault(
                stmt.target.id,
                f"{mod_name}.{stmt.target.id}" if mod_name else stmt.target.id,
            )
    module_names = set(ms.bindings)
    ms.module_names = sorted(module_names)

    # Pass 2: the module pseudo-scope plus every function and method.
    mod_summary = FunctionSummary(
        qualname=MODULE_SCOPE, name=MODULE_SCOPE, lineno=1, col=0
    )
    mod_extractor = _ScopeExtractor(
        mod_summary, module_names, set(), set(), is_module_scope=True
    )
    functions: list[FunctionSummary] = []
    for stmt in source_tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in stmt.decorator_list:
                mod_extractor.roots(deco)
            _extract_function(
                stmt, ms, module_names, "", "", "", set(), functions
            )
        elif isinstance(stmt, ast.ClassDef):
            for deco in stmt.decorator_list:
                mod_extractor.roots(deco)
            class_locals = {
                s.name
                for s in stmt.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _extract_function(
                        sub,
                        ms,
                        module_names,
                        f"{stmt.name}.",
                        stmt.name,
                        "",
                        class_locals,
                        functions,
                    )
                elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.Expr)):
                    # class-level constants: fold into the module scope
                    mod_extractor.handle_stmt(sub)
        else:
            mod_extractor.handle_stmt(stmt)
    ms.functions = [mod_summary, *functions]
    return ms
