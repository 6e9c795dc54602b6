"""Disk backends: packed :class:`RunResult` batches behind atomic writes.

Layout of a classic (unsharded) store directory::

    <root>/
      store.json             # {"schema": "repro.store/1"} — layout marker
      index.json             # advisory key -> {nbytes} map (rebuildable)
      objects/<k[:2]>/<k>.json   # one entry per task key
      journals/<sweep>.jsonl     # per-sweep completion journals

A sharded store (:class:`ShardedBackend`) fans the same entry format
out across 16 hex-prefix shards, each a self-contained
:class:`DiskStore` plus a write log and an advisory lock::

    <root>/
      store.json             # {"schema": "repro.store/sharded-1", ...}
      journals/<sweep>.jsonl # sweep journals stay store-wide
      shards/<x>/            # x = first hex char of the key
        store.json, index.json, objects/...   # a DiskStore
        journal/seg-*.jsonl  # ShardJournal write log
        .lock                # FileLock serializing writers

Every entry is a single JSON document carrying its own SHA-256 checksum
over the canonical payload text, so bit rot and torn writes are
*detected* (:class:`~repro.errors.StoreCorruptionError`) rather than
served.  Writes go to a temp file in the same directory followed by
``os.replace`` — readers never observe a half-written entry, and a
crash leaves at worst an orphaned ``*.tmp`` the next ``gc`` sweeps up.
Each writer (process and thread) names its own temp file, so two
writers racing on one key each rename a whole file of their own.
Because the sharded layout reuses the entry format byte-for-byte,
:func:`migrate_store` copies entry files verbatim — checksums and
bit-identity carry over by construction.

The index is advisory: ``put``/``delete`` maintain it, but the objects
directory is the source of truth and :meth:`DiskStore.rebuild_index`
reconstructs it by scanning.  Entry files' mtimes double as the LRU
clock for :mod:`repro.store.gc` — a cache hit touches the file.

Packing preserves dtypes and shapes exactly; unpacked results satisfy
bit-identity with the originals (the acceptance bar for warm-cache
sweeps).

A boolean array (a run's per-node ``informed_mask``) is stored
bit-packed, as ``bits``: the base64 of :func:`numpy.packbits` over the
flattened array.  Every other array is a ``data`` list of its values,
and so were boolean arrays in entries written before result schema 3;
:func:`_unpack_array` reads both forms.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
import os
import shutil
import threading
from pathlib import Path
from typing import Any, Iterator, Protocol, Sequence

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.trace import BroadcastTrace
from repro.errors import StoreCorruptionError, StoreError
from repro.obs import spans as obs_spans
from repro.sim.results import RunResult
from repro.store.journal import FileLock, ShardJournal
from repro.store.keys import RESULT_SCHEMA_VERSION, canonical_json

__all__ = [
    "STORE_SCHEMA",
    "SHARDED_SCHEMA",
    "N_SHARDS",
    "pack_result",
    "unpack_result",
    "DiskStore",
    "ShardedBackend",
    "StoreBackend",
    "open_store",
    "migrate_store",
]

STORE_SCHEMA = "repro.store/1"
SHARDED_SCHEMA = "repro.store/sharded-1"
#: Shards of a :class:`ShardedBackend` — one per first hex char of a key.
N_SHARDS = 16
_SHARD_NAMES = "0123456789abcdef"
_KEY_CHARS = frozenset(_SHARD_NAMES)


# ----------------------------------------------------------------------
# RunResult <-> JSON-safe dict
# ----------------------------------------------------------------------
def _pack_array(a: np.ndarray) -> dict:
    doc: dict[str, Any] = {"dtype": str(a.dtype), "shape": [int(s) for s in a.shape]}
    if a.dtype == np.bool_:
        packed = np.packbits(a.ravel()).tobytes()
        doc["bits"] = base64.b64encode(packed).decode("ascii")
    else:
        doc["data"] = a.ravel().tolist()
    return doc


def _unpack_array(d: dict) -> np.ndarray:
    if "bits" not in d:
        return np.array(d["data"], dtype=d["dtype"]).reshape(d["shape"])
    if d["dtype"] != "bool":
        raise ValueError(f"bit-packed array of dtype {d['dtype']!r}")
    size = math.prod(d["shape"])
    raw = base64.b64decode(d["bits"], validate=True)
    if len(raw) != (size + 7) // 8:
        # unpackbits(count=...) would zero-pad a short field silently.
        raise ValueError(f"{len(raw)} packed bytes for {size} booleans")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=size)
    return bits.view(np.bool_).reshape(d["shape"])


def _pack_entropy(entropy: Any) -> Any:
    if entropy is None or isinstance(entropy, int):
        return entropy
    if isinstance(entropy, (list, tuple)):
        return [int(e) for e in entropy]
    if isinstance(entropy, np.integer):
        return int(entropy)
    raise StoreError(f"unpackable seed entropy of type {type(entropy).__name__}")


def pack_result(result: RunResult) -> dict:
    """One :class:`RunResult` as a JSON-safe dict (dtypes preserved)."""
    trace = result.trace
    return {
        "trace": {
            "config": dataclasses.asdict(trace.config),
            "p": None if np.isnan(trace.p) else float(trace.p),
            "new_by_phase_ring": _pack_array(trace.new_by_phase_ring),
            "broadcasts_by_phase": _pack_array(trace.broadcasts_by_phase),
        },
        "new_informed_by_slot": _pack_array(result.new_informed_by_slot),
        "broadcasts_by_slot": _pack_array(result.broadcasts_by_slot),
        "n_field_nodes": int(result.n_field_nodes),
        "collisions": int(result.collisions),
        "total_tx": int(result.total_tx),
        "total_rx": int(result.total_rx),
        "seed_entropy": _pack_entropy(result.seed_entropy),
        "informed_mask": (
            None if result.informed_mask is None else _pack_array(result.informed_mask)
        ),
    }


def unpack_result(doc: dict) -> RunResult:
    """Inverse of :func:`pack_result`."""
    t = doc["trace"]
    trace = BroadcastTrace(
        config=AnalysisConfig(**t["config"]),
        p=float("nan") if t["p"] is None else float(t["p"]),
        new_by_phase_ring=_unpack_array(t["new_by_phase_ring"]),
        broadcasts_by_phase=_unpack_array(t["broadcasts_by_phase"]),
    )
    mask = doc["informed_mask"]
    entropy = doc["seed_entropy"]
    return RunResult(
        trace=trace,
        new_informed_by_slot=_unpack_array(doc["new_informed_by_slot"]),
        broadcasts_by_slot=_unpack_array(doc["broadcasts_by_slot"]),
        n_field_nodes=int(doc["n_field_nodes"]),
        collisions=int(doc["collisions"]),
        total_tx=int(doc["total_tx"]),
        total_rx=int(doc["total_rx"]),
        seed_entropy=entropy if entropy is None else (
            [int(e) for e in entropy] if isinstance(entropy, list) else int(entropy)
        ),
        informed_mask=None if mask is None else _unpack_array(mask),
    )


# ----------------------------------------------------------------------
# the disk store
# ----------------------------------------------------------------------
def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a same-directory temp file + ``os.replace``.

    The temp name is per writer (process and thread), so two writers
    racing on one path never share, truncate or rename each other's file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _check_key(key: str) -> str:
    if len(key) != 64 or not set(key) <= _KEY_CHARS:
        raise StoreError(f"not a store key (expected 64 hex chars): {key!r}")
    return key


class DiskStore:
    """A content-addressed store of packed :class:`RunResult` batches.

    Parameters
    ----------
    root:
        Store directory; created (with its layout marker) if missing.

    Notes
    -----
    Safe for concurrent *processes* doing independent puts/gets — entry
    writes are atomic and keys are content-addressed, so the worst case
    of a racing double-put is writing identical bytes twice.  The
    advisory ``index.json`` may lag under races; it is rebuilt on
    demand and never consulted for correctness.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.journals_dir = self.root / "journals"
        self._index_path = self.root / "index.json"
        self._index: dict[str, dict] | None = None
        self._index_dirty = False
        marker = self.root / "store.json"
        if marker.exists():
            try:
                meta = json.loads(marker.read_text())
            except ValueError as exc:
                raise StoreError(f"unreadable store marker at {marker}") from exc
            if meta.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    f"unsupported store schema {meta.get('schema')!r} at {self.root}"
                )
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            self.objects_dir.mkdir(exist_ok=True)
            self.journals_dir.mkdir(exist_ok=True)
            _atomic_write_text(
                marker,
                json.dumps(
                    {"schema": STORE_SCHEMA, "result_schema": RESULT_SCHEMA_VERSION}
                )
                + "\n",
            )
        self.objects_dir.mkdir(exist_ok=True)
        self.journals_dir.mkdir(exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def objects_dirs(self) -> list[Path]:
        """Objects directories to scan (one here; one per shard when sharded)."""
        return [self.objects_dir]

    def path_for(self, key: str) -> Path:
        """Entry path for a key (two-char fan-out keeps dirs small)."""
        _check_key(key)
        return self.objects_dir / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def put(self, key: str, results: Sequence[RunResult]) -> int:
        """Store a batch of results under ``key``; returns bytes written.

        Idempotent: re-putting an existing key rewrites identical
        content (the entry is a pure function of the key).
        """
        prof = obs_spans.profiler()
        begin = prof.begin if prof.enabled else None
        h = begin("store.put", "store") if begin is not None else None
        payload = {"results": [pack_result(r) for r in results]}
        payload_text = canonical_json(payload)
        doc = {
            "schema": STORE_SCHEMA,
            "result_schema": RESULT_SCHEMA_VERSION,
            "key": _check_key(key),
            "checksum": hashlib.sha256(payload_text.encode("utf-8")).hexdigest(),
            "payload_json": payload_text,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(doc, sort_keys=True) + "\n"
        _atomic_write_text(path, text)
        self._index_update(key, len(text))
        if h is not None:
            h.end(nbytes=len(text), results=len(results))
        return len(text)

    def get(self, key: str, *, touch: bool = True) -> list[RunResult] | None:
        """The batch stored under ``key``, or ``None`` on a miss.

        Raises
        ------
        StoreCorruptionError
            If the entry exists but fails checksum/decoding.  Callers
            that prefer recomputation over failure (the scheduler, via
            ``verify``'s ``--delete``) drop the entry and treat the key
            as a miss.
        """
        prof = obs_spans.profiler()
        begin = prof.begin if prof.enabled else None
        h = begin("store.get", "store") if begin is not None else None
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            if h is not None:
                h.end(hit=0)
            return None
        try:
            doc = json.loads(text)
            payload_text = doc["payload_json"]
            recorded = doc["checksum"]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreCorruptionError(f"undecodable store entry {key} at {path}") from exc
        actual = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
        if actual != recorded:
            raise StoreCorruptionError(
                f"checksum mismatch for store entry {key} at {path} "
                f"(recorded {recorded[:12]}…, actual {actual[:12]}…)"
            )
        try:
            payload = json.loads(payload_text)
            results = [unpack_result(d) for d in payload["results"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreCorruptionError(f"unpackable store entry {key} at {path}") from exc
        if touch:
            # Bump the LRU clock (mtime) without reading the wall clock.
            os.utime(path)
        if h is not None:
            h.end(hit=1, nbytes=len(text))
        return results

    def delete(self, key: str) -> bool:
        """Remove an entry; returns whether it existed."""
        path = self.path_for(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        self._index_update(key, None)
        return True

    def keys(self) -> Iterator[str]:
        """Every stored key, lexicographically sorted."""
        if not self.objects_dir.exists():
            return
        for sub in sorted(self.objects_dir.iterdir()):
            if not sub.is_dir():
                continue
            for f in sorted(sub.glob("*.json")):
                yield f.stem

    def nbytes(self) -> int:
        """Total bytes across entry files (objects only, not journals)."""
        return sum(self.path_for(k).stat().st_size for k in self.keys())

    def stats(self) -> dict:
        """Counts and sizes for the CLI and manifests."""
        entries = 0
        nbytes = 0
        for key in self.keys():
            entries += 1
            nbytes += self.path_for(key).stat().st_size
        journals = (
            len(list(self.journals_dir.glob("*.jsonl")))
            if self.journals_dir.exists()
            else 0
        )
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA,
            "result_schema": RESULT_SCHEMA_VERSION,
            "entries": entries,
            "nbytes": nbytes,
            "journals": journals,
        }

    def verify(self) -> list[tuple[str, str]]:
        """Checksum every entry; returns ``(key, problem)`` pairs."""
        bad: list[tuple[str, str]] = []
        for key in self.keys():
            try:
                self.get(key, touch=False)
            except StoreCorruptionError as exc:
                bad.append((key, str(exc)))
        return bad

    # ------------------------------------------------------------------
    # advisory index
    # ------------------------------------------------------------------
    # In-memory while a store object is live; persisted by
    # :meth:`flush_index` (the scheduler flushes once per sweep, the CLI
    # after gc/invalidate) rather than per put — a 10k-task sweep must
    # not rewrite a growing index 10k times.
    def load_index(self) -> dict[str, dict]:
        """The advisory index; rebuilt by scan when missing/unreadable."""
        if self._index is not None:
            return self._index
        try:
            doc = json.loads(self._index_path.read_text())
            if isinstance(doc, dict) and isinstance(doc.get("entries"), dict):
                self._index = doc["entries"]
                return self._index
        except (OSError, ValueError):
            pass
        return self.rebuild_index()

    def rebuild_index(self) -> dict[str, dict]:
        """Reconstruct the index from the objects directory and persist it."""
        self._index = {
            key: {"nbytes": self.path_for(key).stat().st_size} for key in self.keys()
        }
        self._index_dirty = True
        self.flush_index()
        return self._index

    def flush_index(self) -> None:
        """Persist pending index updates to ``index.json``."""
        if self._index is None or not self._index_dirty:
            return
        _atomic_write_text(
            self._index_path,
            json.dumps(
                {"schema": STORE_SCHEMA, "entries": self._index}, sort_keys=True
            )
            + "\n",
        )
        self._index_dirty = False

    def _index_update(self, key: str, nbytes: int | None) -> None:
        entries = self.load_index()
        if nbytes is None:
            entries.pop(key, None)
        else:
            entries[key] = {"nbytes": nbytes}
        self._index_dirty = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiskStore({str(self.root)!r})"


# ----------------------------------------------------------------------
# the sharded store
# ----------------------------------------------------------------------
class ShardedBackend:
    """Sixteen hex-prefix :class:`DiskStore` shards behind one interface.

    A key ``k`` lives in shard ``k[0]`` — keys are SHA-256 hex, so load
    spreads uniformly and the shard of a key never changes.  Each shard
    is a complete :class:`DiskStore` (same entry format, own advisory
    index) plus a :class:`~repro.store.journal.ShardJournal` write log
    and a :class:`~repro.store.journal.FileLock`.  Mutations take the
    shard's lock around entry write + journal append + index touch, so
    two concurrent schedulers hammering the same shard serialize those
    few milliseconds and nothing else — reads never lock (entry writes
    are atomic), and writers on *different* shards never contend.

    Sweep journals remain store-wide under ``<root>/journals`` — a
    sweep spans shards, and its completion record is about the sweep,
    not about placement.

    The interface deliberately mirrors :class:`DiskStore` (``put`` /
    ``get`` / ``delete`` / ``keys`` / ``stats`` / ``verify`` /
    ``flush_index`` / ``path_for`` / ``objects_dirs``), so the
    scheduler, gc, and CLI accept either via :data:`StoreBackend`.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        max_segment_bytes: int = 1 << 20,
    ) -> None:
        self.root = Path(root)
        self.journals_dir = self.root / "journals"
        marker = self.root / "store.json"
        if marker.exists():
            try:
                meta = json.loads(marker.read_text())
            except ValueError as exc:
                raise StoreError(f"unreadable store marker at {marker}") from exc
            if meta.get("schema") != SHARDED_SCHEMA:
                raise StoreError(
                    f"not a sharded store (schema={meta.get('schema')!r}) "
                    f"at {self.root} — run `repro-store migrate` to convert"
                )
            if meta.get("shards") not in (None, N_SHARDS):
                raise StoreError(
                    f"unsupported shard count {meta.get('shards')!r} at {self.root}"
                )
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(
                marker,
                json.dumps(
                    {
                        "schema": SHARDED_SCHEMA,
                        "result_schema": RESULT_SCHEMA_VERSION,
                        "shards": N_SHARDS,
                    }
                )
                + "\n",
            )
        self.journals_dir.mkdir(exist_ok=True)
        shards_dir = self.root / "shards"
        shards_dir.mkdir(exist_ok=True)
        self.shards: dict[str, DiskStore] = {
            name: DiskStore(shards_dir / name) for name in _SHARD_NAMES
        }
        self._journals: dict[str, ShardJournal] = {
            name: ShardJournal(
                shards_dir / name / "journal", max_segment_bytes=max_segment_bytes
            )
            for name in _SHARD_NAMES
        }
        self._locks: dict[str, FileLock] = {
            name: FileLock(shards_dir / name / ".lock") for name in _SHARD_NAMES
        }

    # ------------------------------------------------------------------
    def shard_for(self, key: str) -> DiskStore:
        """The shard holding ``key`` (its first hex char)."""
        _check_key(key)
        return self.shards[key[0]]

    def shard_lock(self, key: str) -> FileLock:
        """The advisory writer lock of ``key``'s shard."""
        _check_key(key)
        return self._locks[key[0]]

    def shard_journal(self, key: str) -> ShardJournal:
        """The write log of ``key``'s shard."""
        _check_key(key)
        return self._journals[key[0]]

    @property
    def objects_dirs(self) -> list[Path]:
        """Every shard's objects directory, in shard order."""
        return [self.shards[name].objects_dir for name in _SHARD_NAMES]

    def path_for(self, key: str) -> Path:
        return self.shard_for(key).path_for(key)

    def __contains__(self, key: str) -> bool:
        return key in self.shard_for(key)

    def put(self, key: str, results: Sequence[RunResult]) -> int:
        """Store a batch under ``key``, serialized per shard.

        The shard lock covers the entry write, the journal append, and
        the index touch as one critical section — a concurrent writer
        on the same shard waits; one on a different shard does not.
        """
        _check_key(key)
        with self._locks[key[0]]:
            nbytes = self.shards[key[0]].put(key, results)
            self._journals[key[0]].append("put", key, nbytes)
        return nbytes

    def get(self, key: str, *, touch: bool = True) -> list[RunResult] | None:
        return self.shard_for(key).get(key, touch=touch)

    def delete(self, key: str) -> bool:
        _check_key(key)
        with self._locks[key[0]]:
            existed = self.shards[key[0]].delete(key)
            if existed:
                self._journals[key[0]].append("delete", key)
        return existed

    def keys(self) -> Iterator[str]:
        """Every stored key; shard order is lexicographic, so global too."""
        for name in _SHARD_NAMES:
            yield from self.shards[name].keys()

    def nbytes(self) -> int:
        return sum(self.shards[name].nbytes() for name in _SHARD_NAMES)

    def stats(self) -> dict:
        """Store-wide totals plus a per-shard breakdown."""
        shards: dict[str, dict] = {}
        entries = 0
        nbytes = 0
        for name in _SHARD_NAMES:
            s = self.shards[name].stats()
            shards[name] = {
                "entries": s["entries"],
                "nbytes": s["nbytes"],
                "journal_segments": len(self._journals[name].segments()),
            }
            entries += s["entries"]
            nbytes += s["nbytes"]
        journals = len(list(self.journals_dir.glob("*.jsonl")))
        return {
            "root": str(self.root),
            "schema": SHARDED_SCHEMA,
            "result_schema": RESULT_SCHEMA_VERSION,
            "entries": entries,
            "nbytes": nbytes,
            "journals": journals,
            "shards": shards,
        }

    def verify(self) -> list[tuple[str, str]]:
        bad: list[tuple[str, str]] = []
        for name in _SHARD_NAMES:
            bad.extend(self.shards[name].verify())
        return bad

    # ------------------------------------------------------------------
    def load_index(self) -> dict[str, dict]:
        """Union of the shard indexes (keys are globally unique)."""
        merged: dict[str, dict] = {}
        for name in _SHARD_NAMES:
            merged.update(self.shards[name].load_index())
        return merged

    def rebuild_index(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        for name in _SHARD_NAMES:
            with self._locks[name]:
                merged.update(self.shards[name].rebuild_index())
        return merged

    def flush_index(self) -> None:
        """Flush every shard's pending index updates, under its lock."""
        for name in _SHARD_NAMES:
            shard = self.shards[name]
            if shard._index is None or not shard._index_dirty:
                continue
            with self._locks[name]:
                shard.flush_index()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedBackend({str(self.root)!r})"


class StoreBackend(Protocol):
    """The backend seam: what the scheduler, gc, and CLI require.

    :class:`DiskStore`, :class:`ShardedBackend`, and
    :class:`repro.serve.memory.ReadThroughStore` all satisfy it
    structurally; a future remote/object-store backend plugs in by
    implementing the same surface.
    """

    @property
    def root(self) -> Path: ...

    @property
    def journals_dir(self) -> Path: ...

    @property
    def objects_dirs(self) -> list[Path]: ...

    def path_for(self, key: str) -> Path: ...

    def __contains__(self, key: str) -> bool: ...

    def put(self, key: str, results: Sequence[RunResult]) -> int: ...

    def get(self, key: str, *, touch: bool = True) -> list[RunResult] | None: ...

    def delete(self, key: str) -> bool: ...

    def keys(self) -> Iterator[str]: ...

    def nbytes(self) -> int: ...

    def stats(self) -> dict: ...

    def verify(self) -> list[tuple[str, str]]: ...

    def load_index(self) -> dict[str, dict]: ...

    def rebuild_index(self) -> dict[str, dict]: ...

    def flush_index(self) -> None: ...


def open_store(root: str | os.PathLike[str]) -> StoreBackend:
    """Open a store directory as whichever backend its marker declares.

    A missing marker (new directory) creates a classic
    :class:`DiskStore` — sharding is opt-in via
    :class:`ShardedBackend` or ``repro-store migrate``.
    """
    marker = Path(root) / "store.json"
    if marker.exists():
        try:
            meta = json.loads(marker.read_text())
        except ValueError as exc:
            raise StoreError(f"unreadable store marker at {marker}") from exc
        if meta.get("schema") == SHARDED_SCHEMA:
            return ShardedBackend(root)
    return DiskStore(root)


def migrate_store(
    src: str | os.PathLike[str], dst: str | os.PathLike[str]
) -> dict:
    """Copy a classic store into a fresh sharded one, bit-identically.

    Entry files are copied verbatim — each embeds its own checksum over
    the canonical payload, and both layouts share the entry format, so
    migrated entries are byte-identical to their sources (``verify``
    passes on both sides unchanged).  Sweep journals move to the
    sharded store's store-wide ``journals/``; per-shard write logs
    start from the migrated population.
    """
    source = open_store(src)
    if isinstance(source, ShardedBackend):
        raise StoreError(f"store at {src} is already sharded")
    dst_path = Path(dst)
    if dst_path.exists() and any(dst_path.iterdir()):
        raise StoreError(f"migration target {dst} exists and is not empty")
    target = ShardedBackend(dst_path)
    entries = 0
    nbytes = 0
    for key in source.keys():
        src_file = source.path_for(key)
        dst_file = target.path_for(key)
        dst_file.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src_file, dst_file)
        size = dst_file.stat().st_size
        shard = target.shard_for(key)
        shard._index_update(key, size)
        target.shard_journal(key).append("put", key, size)
        entries += 1
        nbytes += size
    target.flush_index()
    journals = 0
    if source.journals_dir.exists():
        for jf in sorted(source.journals_dir.glob("*.jsonl")):
            shutil.copy2(jf, target.journals_dir / jf.name)
            journals += 1
    return {
        "src": str(source.root),
        "dst": str(target.root),
        "entries": entries,
        "nbytes": nbytes,
        "journals": journals,
    }
