"""The analyzer's two fast paths reproduce the slow ones on the repo.

:meth:`ModuleContext.nodes` answers a rule's node query from one shared
walk per module, and :func:`parse_suppressions` skips tokenizing a
source that lacks ``repro:``.  Each is checked here against the code it
replaced, on every file the tier-1 lint pass reads.
"""

from __future__ import annotations

import ast
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis.lint.core import (
    _SUPPRESS_MARKER,
    _SUPPRESS_RE,
    ModuleContext,
    iter_python_files,
    parse_suppressions,
)
from repro.analysis.lint.rules import ImportMap

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "benchmarks", "examples")

#: The queries the module rules make, and the import pair split up.
QUERIES: tuple[tuple[type[ast.AST], ...], ...] = (
    (ast.Call,),
    (ast.ClassDef,),
    (ast.ExceptHandler,),
    (ast.If,),
    (ast.Import,),
    (ast.ImportFrom,),
    (ast.Import, ast.ImportFrom),
)


@pytest.fixture(scope="module")
def sources() -> dict[Path, str]:
    roots = [REPO_ROOT / p for p in CHECKED if (REPO_ROOT / p).exists()]
    return {f: f.read_text(encoding="utf-8") for f in iter_python_files(roots)}


def _context(source: str) -> ModuleContext:
    return ModuleContext(path="x.py", tree=ast.parse(source), lines=source.splitlines())


def test_nodes_match_ast_walk_on_every_file(sources):
    for path, source in sources.items():
        ctx = _context(source)
        walk = list(ast.walk(ctx.tree))
        for types in QUERIES:
            # AST nodes compare by identity: the same objects, in order
            expected = [n for n in walk if isinstance(n, types)]
            assert ctx.nodes(*types) == expected, (path, types)


def test_marker_free_files_hold_no_suppression_comment(sources):
    """Skipping the tokenizer loses nothing: no ``COMMENT`` token of a
    file without the marker matches the suppression pattern.

    A comment token runs from its ``#`` to the end of its physical
    line, so a match in the token is a match in the line.  Searching
    the lines is the stronger check, and it costs no tokenizer pass.
    """
    for path, source in sources.items():
        if _SUPPRESS_MARKER not in source:
            hits = [ln for ln in source.split("\n") if _SUPPRESS_RE.search(ln)]
            assert hits == [], path


def test_docstring_allow_is_not_a_suppression():
    source = dedent(
        '''
        import numpy as np

        def f():
            """Silence it with ``# repro: allow(det-global-rng) — reason``."""
            np.random.seed(42)
        '''
    )
    assert _SUPPRESS_MARKER in source  # so it takes the tokenizing path
    assert parse_suppressions(source) == {}


def test_import_map_built_once_and_dropped_with_the_index():
    ctx = _context("import numpy as np\nnp.zeros(3)\n")
    imports = ImportMap.of(ctx)
    assert ImportMap.of(ctx) is imports and imports.numpy == {"np"}
    calls = ctx.nodes(ast.Call)
    ctx.drop_index()
    assert ImportMap.of(ctx) is not imports
    assert ctx.nodes(ast.Call) == calls  # rebuilt from the same tree
