"""The tier-1 hook: the repo itself must be lint-clean.

This is the pytest side of the CI gate (`python -m repro.analysis src
tests benchmarks`): every invariant rule runs over the real tree, and
any unsuppressed, unbaselined finding fails the suite.  The committed
baseline is empty and this test also keeps it that way.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint.baseline import fingerprint_findings, load_baseline
from repro.analysis.lint.core import check_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "benchmarks", "examples")


@pytest.fixture(scope="module")
def repo_check():
    """One analyzer pass over the tree: ``(findings, unused suppressions)``."""
    return check_paths(
        [REPO_ROOT / p for p in CHECKED if (REPO_ROOT / p).exists()],
        root=REPO_ROOT,
    )


def test_repo_has_no_new_findings(repo_check):
    findings, _ = repo_check
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    new = [
        f
        for f, fp in fingerprint_findings([f for f in findings if not f.suppressed])
        if fp not in baseline
    ]
    assert new == [], "new invariant-lint findings:\n" + "\n".join(
        f"  {f.location()}  {f.rule}  {f.message}" for f in new
    )


def test_committed_baseline_is_empty():
    """The baseline mechanism exists for future rule rollouts; the tree
    itself carries no grandfathered debt."""
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    assert len(baseline) == 0


def test_every_suppression_is_used_and_reasoned(repo_check):
    """Stale allow-comments are debt too: each one must still be
    suppressing a live finding."""
    findings, unused = repo_check
    assert unused == [], "unused suppressions:\n" + "\n".join(
        f"  line {s.line}: allow({', '.join(s.rules)})" for s in unused
    )
    for f in findings:
        if f.suppressed:
            assert f.suppress_reason, f"reasonless suppression at {f.location()}"
