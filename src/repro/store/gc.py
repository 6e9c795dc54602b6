"""Garbage collection: bound the store by size and age, LRU first.

The store grows monotonically as sweeps run; :func:`collect_garbage`
brings it back under a byte cap and/or drops entries unused for longer
than a maximum age.  "Used" is the entry file's mtime: writes set it
and cache hits touch it (:meth:`DiskStore.get`), so sorting by mtime
ascending is least-recently-used order without any extra bookkeeping.

Garbage collection never affects results — an evicted entry is simply
recomputed on the next sweep that needs it (and its journal line, if
any, stops being backed by the store, which the scheduler treats as a
miss).  Stale ``*.tmp`` files from interrupted atomic writes are always
removed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.store.backend import StoreBackend

__all__ = ["GcReport", "collect_garbage"]


@dataclass(frozen=True)
class GcReport:
    """What one :func:`collect_garbage` pass did (or would do)."""

    examined: int
    removed: int
    bytes_before: int
    bytes_after: int
    dry_run: bool
    removed_keys: tuple[str, ...] = field(repr=False, default=())

    def __str__(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"gc: {verb} {self.removed}/{self.examined} entries, "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )


def collect_garbage(
    store: StoreBackend,
    *,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> GcReport:
    """Evict least-recently-used entries past the size/age caps.

    Parameters
    ----------
    store:
        The store to collect.
    max_bytes:
        Keep total entry bytes at or under this cap, evicting oldest
        (by mtime) first.  ``None`` = no size cap.
    max_age_s:
        Evict entries whose mtime is older than this many seconds
        before ``now``.  ``None`` = no age cap.
    now:
        Reference time (``time.time()`` epoch seconds); defaults to the
        current time.  Injectable so tests and replayed gc decisions
        are deterministic.
    dry_run:
        Report what would be evicted without touching the store.
    """
    if now is None:
        # repro: allow(det-wallclock) — gc eviction is maintenance, not a result; evicted entries are recomputed bit-identically
        now = time.time()

    entries = []  # (mtime, nbytes, key)
    for key in store.keys():
        st = store.path_for(key).stat()
        entries.append((st.st_mtime, st.st_size, key))
    entries.sort()  # oldest first == least recently used first

    bytes_before = sum(nbytes for _, nbytes, _ in entries)
    total = bytes_before
    doomed: list[str] = []
    kept_bytes: dict[str, int] = {}
    for mtime, nbytes, key in entries:
        if max_age_s is not None and (now - mtime) > max_age_s:
            doomed.append(key)
            total -= nbytes
        else:
            kept_bytes[key] = nbytes
    if max_bytes is not None:
        # Evict in LRU order among the survivors until under the cap.
        for _, nbytes, key in entries:
            if total <= max_bytes:
                break
            if key in kept_bytes:
                doomed.append(key)
                del kept_bytes[key]
                total -= nbytes

    if not dry_run:
        for key in doomed:
            store.delete(key)
        for tmp in store.objects_dir.rglob("*.tmp"):
            tmp.unlink(missing_ok=True)
        store.flush_index()

    return GcReport(
        examined=len(entries),
        removed=len(doomed),
        bytes_before=bytes_before,
        bytes_after=total,
        dry_run=dry_run,
        removed_keys=tuple(doomed),
    )
