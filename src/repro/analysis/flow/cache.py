"""Incremental per-file fact cache of the analyzer.

Two facts about a file are pure functions of its text, its path and the
analyzer's own code: the module rules' results (findings plus the
suppression table, with the marks those rules set) and the flow
extraction's :class:`ModuleSummary`.  The cache stores each as one JSON
entry under ``.repro-lint-cache/`` (git-ignored), keyed by
``SHA-256(fingerprint, kind, path, content)``, so a warm run parses,
tokenizes, rule-checks and extracts only the files that changed, while
remaining *byte-identical* to a cold run: entries serialize with their
internal ordering intact, and everything downstream is deterministic in
that ordering.

The fingerprint, computed once per run by :func:`open_cache`, hashes
the interpreter version, the bytes of every module of
``repro.analysis.lint`` and ``repro.analysis.flow``, the file defining
each selected rule, and the sorted selected rule ids.  An edited rule or
extractor therefore never serves stale facts, and a ``--rule`` subset
gets entries of its own.

A corrupt or truncated entry silently falls back to recomputation — the
cache can never change results, only speed.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.flow.summary import ModuleSummary, extract_module

__all__ = ["DEFAULT_CACHE_DIR", "SummaryCache", "content_key", "open_cache"]

DEFAULT_CACHE_DIR = ".repro-lint-cache"

#: The analyzer's packages: every module in them is part of the fingerprint.
_ANALYZER_DIRS = (Path(__file__).parent, Path(__file__).parent.parent / "lint")


def content_key(fingerprint: str, kind: str, path: str, source: str) -> str:
    """Cache key of one kind of fact about one file."""
    h = hashlib.sha256(f"{fingerprint}\x00{kind}\x00{path}\x00".encode())
    h.update(source.encode("utf-8"))
    return h.hexdigest()


class SummaryCache:
    """Per-file fact entries on disk (``directory=None`` stores nothing)
    and the summaries one run has produced so far."""

    def __init__(self, directory: str | Path | None, fingerprint: str = "") -> None:
        self.directory = Path(directory) if directory is not None else None
        self.fingerprint = fingerprint
        self._summaries: dict[str, ModuleSummary] = {}  #: by path

    def _entry(self, kind: str, path: str, source: str) -> Path:
        assert self.directory is not None
        key = content_key(self.fingerprint, kind, path, source)
        return self.directory / f"{key}.json"

    def load(self, kind: str, path: str, source: str) -> dict[str, Any] | None:
        """The stored ``kind`` entry of one file, or None on a miss."""
        if self.directory is None:
            return None
        entry = self._entry(kind, path, source)
        try:
            doc = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("kind") != kind or doc.get("path") != path:
            return None
        return doc

    def store(self, kind: str, path: str, source: str, doc: dict[str, Any]) -> None:
        """Store one file's ``kind`` entry (``doc`` gains kind and path)."""
        if self.directory is None:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            entry = self._entry(kind, path, source)
            tmp = entry.with_suffix(".tmp")
            tmp.write_text(json.dumps({**doc, "kind": kind, "path": path}), encoding="utf-8")
            tmp.replace(entry)
        except OSError:
            pass  # a read-only checkout degrades to cold runs

    def summary_for(
        self, path: str, source: str, tree: ast.Module | None = None
    ) -> ModuleSummary:
        """Summary of one module: one this run already produced, a stored
        one, or one extracted from ``tree`` (parsed from ``source`` if
        None).  A run reads each file once, so its path identifies it."""
        summary = self._summaries.get(path)
        if summary is not None:
            return summary
        doc = self.load("summary", path, source)
        if doc is not None:
            try:
                summary = ModuleSummary.from_dict(doc)
            except (ValueError, KeyError, TypeError):
                pass
        if summary is None:
            if tree is None:
                tree = ast.parse(source, filename=path)
            summary = extract_module(tree, path)
            self.store("summary", path, source, summary.to_dict())
        self._summaries[path] = summary
        return summary


def open_cache(
    rules: Iterable[Any],
    root: Path | None = None,
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
) -> SummaryCache:
    """The fact cache of one run with these module ``rules``.

    It lives in ``cache_dir``, else ``<root or cwd>/.repro-lint-cache``,
    and stores nothing without ``use_cache`` or when a rule's defining
    file cannot be read (its findings could not be keyed by its code).
    """
    if not use_cache:
        return SummaryCache(None)
    h = hashlib.sha256(sys.version.encode())
    files = sorted(f for d in _ANALYZER_DIRS for f in d.glob("*.py"))
    for rule in sorted(rules, key=lambda r: r.id):
        try:
            files.append(Path(inspect.getsourcefile(type(rule)) or ""))
        except TypeError:  # a class with no source file
            return SummaryCache(None)
        h.update(f"\x00rule\x00{rule.id}".encode())
    try:
        for f in files:
            data = f.read_bytes()
            h.update(f"\x00{f.name}\x00{len(data)}\x00".encode())
            h.update(data)
    except OSError:
        return SummaryCache(None)
    directory = cache_dir if cache_dir is not None else (root or Path.cwd()) / DEFAULT_CACHE_DIR
    return SummaryCache(directory, h.hexdigest())
