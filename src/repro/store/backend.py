"""The disk store: packed :class:`RunResult` batches behind atomic writes.

Layout of a store directory::

    <root>/
      store.json             # {"schema": "repro.store/1"} — layout marker
      index.json             # advisory key -> {nbytes} map (rebuildable)
      objects/<k[:2]>/<k>.json   # one entry per task key
      journals/<sweep>.jsonl     # per-sweep completion journals

Every entry is a single JSON document carrying its own SHA-256 checksum
over the canonical payload text, so bit rot and torn writes are
*detected* (:class:`~repro.errors.StoreCorruptionError`) rather than
served.  Writes go to a temp file in the same directory followed by
``os.replace`` — readers never observe a half-written entry, and a
crash leaves at worst an orphaned ``*.tmp`` the next ``gc`` sweeps up.
Each writer (process and thread) names its own temp file, so two
writers racing on one key each rename a whole file of their own; keys
are content-addressed, so either rename leaves the same bytes.

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
import threading
from pathlib import Path
from typing import Any, Iterator, Protocol, Sequence

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.trace import BroadcastTrace
from repro.errors import StoreCorruptionError, StoreError
from repro.obs import spans as obs_spans
from repro.sim.results import RunResult
from repro.store.keys import RESULT_SCHEMA_VERSION, canonical_json

__all__ = [
    "STORE_SCHEMA",
    "pack_result",
    "unpack_result",
    "DiskStore",
    "StoreBackend",
    "open_store",
]

STORE_SCHEMA = "repro.store/1"
_KEY_CHARS = frozenset("0123456789abcdef")


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
    Safe without a lock for concurrent writers, processes or threads,
    doing independent puts/gets — entry writes are atomic and keys are
    content-addressed, so the worst case of a racing double-put is
    writing identical bytes twice.  The
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


class StoreBackend(Protocol):
    """The backend seam: what the scheduler, gc, and CLI require.

    :class:`DiskStore` and :class:`repro.serve.memory.ReadThroughStore`
    (a memory tier in front of a :class:`DiskStore`) satisfy it
    structurally.
    """

    @property
    def root(self) -> Path: ...

    @property
    def journals_dir(self) -> Path: ...

    @property
    def objects_dir(self) -> Path: ...

    def path_for(self, key: str) -> Path: ...

    def __contains__(self, key: str) -> bool: ...

    def put(self, key: str, results: Sequence[RunResult]) -> int: ...

    def get(self, key: str, *, touch: bool = True) -> list[RunResult] | None: ...

    def delete(self, key: str) -> bool: ...

    def keys(self) -> Iterator[str]: ...

    def stats(self) -> dict: ...

    def verify(self) -> list[tuple[str, str]]: ...

    def flush_index(self) -> None: ...


def open_store(root: str | os.PathLike[str]) -> DiskStore:
    """Open (or create) the store directory ``root`` as a :class:`DiskStore`.

    Raises
    ------
    StoreError
        If ``root`` holds a store marker of another schema, such as the
        retired sharded layout's ``repro.store/sharded-1``.
    """
    return DiskStore(root)
