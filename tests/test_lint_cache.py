"""The fact cache serves module-rule results: a warm pass must report
exactly what an uncached pass reports, and parse only what changed."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis.lint import core
from repro.analysis.lint.cli import main
from repro.analysis.lint.core import check_paths

#: One file per case the cache must round-trip: a suppressed module-rule
#: finding, a suppression only a flow rule uses, an unused suppression,
#: an unsuppressed finding, and a file outside ``src/``.
TREE = {
    "src/repro/sim/legacy.py": """
        import numpy as np

        np.random.seed(42)  # repro: allow(det-global-rng) — fixture exercises the legacy API
    """,
    "src/repro/sim/draw.py": """
        import numpy as np

        def run_mod(n):
            rng = np.random.default_rng()  # repro: allow(flow-seed-provenance) — fixture entropy boundary
            return rng.random(n)

        LIMIT = 3  # repro: allow(det-wallclock) — stale: nothing here reads a clock
    """,
    "src/repro/sim/loud.py": """
        import numpy as np

        def shuffle(x):
            np.random.shuffle(x)
    """,
    "tools/legacy.py": """
        import random

        random.seed(0)
    """,
}


@pytest.fixture
def repo(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    for rel, body in TREE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(body), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def report(capsys, *argv: str) -> str:
    main([*argv, "src", "tools"])
    return capsys.readouterr().out


@pytest.fixture
def parses(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Paths handed to ``ast.parse`` from here on."""
    seen: list[str] = []
    real = ast.parse

    def spy(source, filename="<unknown>", *args, **kwargs):
        seen.append(str(filename))
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(core.ast, "parse", spy)
    return seen


class TestWarmEqualsUncached:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_warm_report_is_byte_identical_to_no_cache(self, repo, capsys, fmt):
        uncached = report(capsys, "--no-cache", "--format", fmt)
        assert report(capsys, "--format", fmt) == uncached  # cold, fills the cache
        assert report(capsys, "--format", fmt) == uncached  # warm
        if fmt == "text":
            assert "2 suppressed finding(s):" in uncached
            assert "fixture entropy boundary" in uncached
            assert "warning: unused suppression for (det-wallclock) at line 8" in uncached
            assert "tools/legacy.py" in uncached

    def test_rule_subsets_then_full_run(self, repo, capsys):
        runs = [("--rule", "det-global-rng"), ("--rule", "det-wallclock"), ()]
        expected = [report(capsys, "--no-cache", *argv) for argv in runs]
        assert len(set(expected)) == len(runs)
        assert [report(capsys, *argv) for argv in runs] == expected


class TestParsesOnlyWhatChanged:
    def test_warm_pass_after_one_edit_parses_one_file(self, repo, parses):
        check_paths(["src", "tools"], root=repo)
        (repo / "src/repro/sim/loud.py").write_text("X = 2\n", encoding="utf-8")
        parses.clear()
        warm = check_paths(["src", "tools"], root=repo)
        assert parses == ["src/repro/sim/loud.py"]
        parses.clear()
        assert check_paths(["src", "tools"], root=repo) == warm
        assert parses == []
        assert check_paths(["src", "tools"], root=repo, use_cache=False) == warm

    def test_another_interpreter_gets_its_own_entries(self, repo, parses, monkeypatch):
        check_paths(["src", "tools"], root=repo)
        monkeypatch.setattr(sys, "version", sys.version + " (another build)")
        parses.clear()
        check_paths(["src", "tools"], root=repo)
        assert sorted(parses) == sorted(TREE)

    def test_no_cache_parses_every_file_and_writes_nothing(self, repo, parses):
        check_paths(["src", "tools"], root=repo, use_cache=False)
        assert sorted(parses) == sorted(TREE)
        assert not (repo / ".repro-lint-cache").exists()

    def test_unparseable_file_reaches_on_error_on_every_pass(self, repo):
        (repo / "src/repro/sim/broken.py").write_text("def (:\n", encoding="utf-8")
        errors: list[Path] = []
        for passes in (1, 2):
            findings, _ = check_paths(
                ["src", "tools"], root=repo, on_error=lambda f, exc: errors.append(f)
            )
            assert errors == [Path("src/repro/sim/broken.py")] * passes
            assert {f.path for f in findings} >= {"src/repro/sim/loud.py"}


RULE_MODULE = '''
import ast

from repro.analysis.lint.core import Rule


class Probe(Rule):
    id = "probe-call"
    summary = "flags every call"

    def check(self, ctx):
        for node in ctx.nodes(ast.Call):
            yield ctx.finding(self.id, node, "{message}")
'''


def _load_rule(path: Path, message: str, monkeypatch: pytest.MonkeyPatch):
    path.write_text(RULE_MODULE.format(message=message), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("probe_rule_fixture", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.Probe()


def test_edited_rule_module_gives_fresh_findings(repo, tmp_path_factory, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    rule_file = tmp_path_factory.mktemp("rules") / "probe_rule_fixture.py"
    for message in ("first wording", "second, longer wording"):
        rule = _load_rule(rule_file, message, monkeypatch)
        findings, _ = check_paths(["src"], rules=[rule], project_rules=[], root=repo)
        assert findings and {f.message for f in findings} == {message}
