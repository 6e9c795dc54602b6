"""Append-only sweep journals: one completion record per sweep.

The store is the source of truth for result *bytes*; a journal is the
source of truth for a sweep's *history*.  :class:`SweepJournal` keeps
one file per sweep (identified by :func:`repro.store.keys.sweep_key`
over its ordered task keys) under ``<store>/journals/``: a header line
naming the sweep, then one line per completed task.  Lines are flushed
as they are written, so a sweep killed at task 7,000 of 10,000 leaves a
journal with exactly the 7,000 completions that also made it into the
store — re-running with ``resume=True`` appends to that record and only
the missing 3,000 tasks execute.

Loading tolerates a torn final line (the one way an append-only file
can be damaged by a crash) by discarding it; anything else malformed
raises :class:`~repro.errors.StoreCorruptionError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.errors import StoreCorruptionError

__all__ = ["JOURNAL_SCHEMA", "SweepJournal"]

JOURNAL_SCHEMA = "repro.journal/1"


class SweepJournal:
    """One sweep's append-only completion record.

    Parameters
    ----------
    path:
        The journal file (conventionally
        ``<store>/journals/<sweep_key>.jsonl``).
    sweep:
        The sweep fingerprint recorded in the header line.
    n_tasks:
        Total tasks of the sweep, recorded for progress reporting.
    resume:
        If true and the file already exists (with a matching header),
        keep its entries and append; if false, start fresh.
    """

    def __init__(
        self,
        path: str | Path,
        sweep: str,
        n_tasks: int,
        *,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.sweep = sweep
        self.n_tasks = n_tasks
        self._fh: IO[str] | None = None
        self.completed: dict[int, str] = {}
        if resume and self.path.exists():
            self.completed = self._load_existing()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w") as fh:
                fh.write(
                    json.dumps(
                        {
                            "schema": JOURNAL_SCHEMA,
                            "sweep": sweep,
                            "n_tasks": n_tasks,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    # ------------------------------------------------------------------
    def _load_existing(self) -> dict[int, str]:
        completed: dict[int, str] = {}
        lines = self.path.read_text().splitlines()
        if not lines:
            return completed
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise StoreCorruptionError(
                f"unreadable journal header at {self.path}"
            ) from exc
        if header.get("schema") != JOURNAL_SCHEMA:
            raise StoreCorruptionError(
                f"not a sweep journal (schema={header.get('schema')!r}) at {self.path}"
            )
        if header.get("sweep") != self.sweep:
            raise StoreCorruptionError(
                f"journal at {self.path} records sweep {header.get('sweep')!r}, "
                f"not {self.sweep!r}"
            )
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                completed[int(entry["task"])] = str(entry["key"])
            except (ValueError, KeyError, TypeError) as exc:
                if lineno == len(lines):
                    break  # torn final line from a crash mid-append
                raise StoreCorruptionError(
                    f"malformed journal line {lineno} at {self.path}"
                ) from exc
        return completed

    # ------------------------------------------------------------------
    def append(self, task_index: int, key: str) -> None:
        """Record one completed task (flushed immediately)."""
        if task_index in self.completed:
            return
        if self._fh is None:
            self._fh = self.path.open("a")
        self._fh.write(json.dumps({"task": task_index, "key": key}) + "\n")
        self._fh.flush()
        self.completed[task_index] = key

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SweepJournal({str(self.path)!r}, {len(self.completed)}/"
            f"{self.n_tasks} tasks)"
        )
