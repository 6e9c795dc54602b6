"""The read-through in-memory tier: a bounded LRU in front of disk.

A serving process answers the same handful of hot ``(rho, p, seed)``
populations over and over; paying a disk read + JSON decode + checksum
per hit would dominate warm latency.  :class:`MemoryTier` keeps the
*unpacked* :class:`~repro.sim.results.RunResult` batches of the most
recently used keys in process memory, bounded by entry count;
:class:`ReadThroughStore` wraps a :class:`~repro.store.DiskStore` with
it while preserving the store interface, so the scheduler, gc, and the
service all run unchanged on top.

Bit-identity: a memory hit returns the exact object graph the disk hit
produced (it was cached on the way out of ``unpack_result``), so warm
answers are the same bytes-for-bytes results as cold ones — pinned by
the serve test suite.  Consequently entries must be treated as
immutable by callers, which they are everywhere in this codebase
(results are frozen-by-convention dataclasses).

Hit, miss and eviction counts are kept on the tier itself and read
through :meth:`MemoryTier.stats`, which ``ReadThroughStore.stats()``
nests under ``"memory"``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.sim.results import RunResult
from repro.store.backend import StoreBackend, open_store

__all__ = ["MemoryTier", "ReadThroughStore"]


class MemoryTier:
    """Bounded LRU map of store key -> unpacked result batch.

    Plain :class:`~collections.OrderedDict` LRU: a hit moves the key to
    the back, an insert past ``max_entries`` evicts the front.  The
    service reads it from the event loop thread, and the scheduler
    reaches it through :class:`ReadThroughStore` from serve's executor
    threads.  ``get`` and ``put`` are several dict operations each (a
    lookup then a move, an insert then evictions), so they, ``discard``
    and ``clear`` hold one lock: another thread's eviction between a
    lookup and its move would raise ``KeyError``.  ``peek``,
    ``__contains__`` and ``__len__`` are single dict operations and
    take no lock.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ConfigurationError(
                f"max_entries must be > 0, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, list[RunResult]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def peek(self, key: str) -> list[RunResult] | None:
        """A hit without counters or LRU movement (the service fast path)."""
        return self._entries.get(key)

    def get(self, key: str) -> list[RunResult] | None:
        with self._lock:
            batch = self._entries.get(key)
            if batch is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return batch

    def put(self, key: str, batch: list[RunResult]) -> None:
        with self._lock:
            self._entries[key] = batch
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def discard(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoryTier({len(self._entries)}/{self.max_entries})"


class ReadThroughStore:
    """A store backend with a :class:`MemoryTier` in front of it.

    ``get`` consults memory first and populates it from disk on a miss;
    ``put`` writes through (disk first — crash safety never depends on
    the memory tier — then memory); ``delete`` drops both.  Everything
    else (``keys``, ``stats``, ``verify``, ``flush_index``, paths)
    delegates, so :func:`repro.store.scheduler.run_tasks` accepts a
    read-through store wherever it accepts a plain backend.

    One deliberate trade: a memory hit does not touch the disk entry's
    mtime, so gc's LRU clock sees hot-in-memory entries as idle.  A
    serving process that also runs aggressive gc should size
    ``max_bytes`` accordingly (or gc cold).
    """

    def __init__(
        self,
        backend: StoreBackend | str | os.PathLike[str],
        *,
        max_entries: int = 1024,
    ) -> None:
        if isinstance(backend, (str, os.PathLike)):
            backend = open_store(backend)
        self.backend: StoreBackend = backend
        self.memory = MemoryTier(max_entries)

    # ------------------------------------------------------------------
    # the read-through pair
    # ------------------------------------------------------------------
    def get(self, key: str, *, touch: bool = True) -> list[RunResult] | None:
        batch = self.memory.get(key)
        if batch is not None:
            return batch
        batch = self.backend.get(key, touch=touch)
        if batch is not None:
            self.memory.put(key, batch)
        return batch

    def put(self, key: str, results: Sequence[RunResult]) -> int:
        nbytes = self.backend.put(key, results)
        self.memory.put(key, list(results))
        return nbytes

    def delete(self, key: str) -> bool:
        self.memory.discard(key)
        return self.backend.delete(key)

    def __contains__(self, key: str) -> bool:
        return key in self.memory or key in self.backend

    # ------------------------------------------------------------------
    # delegation (the rest of the backend interface)
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        return self.backend.root

    @property
    def journals_dir(self) -> Path:
        return self.backend.journals_dir

    @property
    def objects_dir(self) -> Path:
        return self.backend.objects_dir

    def path_for(self, key: str) -> Path:
        return self.backend.path_for(key)

    def keys(self) -> Iterator[str]:
        return self.backend.keys()

    def stats(self) -> dict:
        stats = dict(self.backend.stats())
        stats["memory"] = self.memory.stats()
        return stats

    def verify(self) -> list[tuple[str, str]]:
        return self.backend.verify()

    def flush_index(self) -> None:
        self.backend.flush_index()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReadThroughStore({self.backend!r}, {self.memory!r})"
