"""Analyzer throughput: the whole-program lint pass must stay cheap.

The flow analyses (symbol table, call graph, provenance/taint/effect
fixed points) run on every CI build and are meant to be a pre-commit
habit, so the warm-cache wall time over ``src/`` is gated with an
absolute budget in ``check_perf.py`` (``HARD_LIMITS``): regressing the
analyzer into tens of seconds would push it out of the edit loop.

The cache is primed once per benchmark (module summaries are
content-addressed), so what's measured is the steady state a developer
sees: re-parse, suppression parsing (a tokenizer pass only for the few
files whose text contains ``repro:``), the per-module rules (all served
from one ``ast.walk`` per module), cache hits, and the project-level
fixed points.  The cold case adds summary extraction; the gap between
the two medians is what the cache saves.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint.core import check_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_analyzer(cache_dir: Path) -> int:
    findings, _unused = check_paths(
        ["src"],
        root=REPO_ROOT,
        cache_dir=str(cache_dir),
    )
    return len(findings)


def test_analyzer_warm_cache_src(benchmark, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    cache_dir = tmp_path / "lint-cache"
    _run_analyzer(cache_dir)  # prime the summary cache
    assert any(cache_dir.iterdir()), "cache should be populated after priming"

    n = benchmark.pedantic(lambda: _run_analyzer(cache_dir), rounds=3, iterations=1)
    assert n >= 0


def test_analyzer_cold_cache_src(benchmark, tmp_path, monkeypatch):
    """Cold-cache cost (summary extraction included), for the history
    sparklines; only the warm run is budget-gated."""
    monkeypatch.chdir(REPO_ROOT)
    counter = [0]

    def run():
        counter[0] += 1
        return _run_analyzer(tmp_path / f"cold-{counter[0]}")

    n = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n >= 0
