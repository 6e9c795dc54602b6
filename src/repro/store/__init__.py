"""Content-addressed result store with crash-safe, resumable sweeps.

The paper's Sec. 5 validation is thousands of independent ``(rho, p,
replication)`` Monte-Carlo tasks, each a pure function of ``(config,
policy, seed, engine, code version)``.  This package memoizes them on
disk so repeated figure/optimizer workloads are served from cache, and
makes grid sweeps survive being killed mid-run:

* :mod:`repro.store.keys` — canonical, stable task keys (SHA-256 over
  a canonical JSON form; no wall clock or RNG may leak in, enforced by
  the ``flow-det-taint`` and ``flow-effects`` analyses).
* :mod:`repro.store.backend` — :class:`DiskStore`: packed
  :class:`~repro.sim.results.RunResult` batches with atomic per-writer
  writes (racing writers, processes or threads, need no lock: entries
  are content-addressed), per-entry checksums (corruption is detected
  and recomputed, never served) and an advisory index.
* :mod:`repro.store.journal` — append-only per-sweep completion
  journals (a killed sweep resumes from where it died).
* :mod:`repro.store.scheduler` — :func:`run_tasks`, the cache-aware
  executor behind ``replicate(..., store=)`` / ``sweep_grid(...,
  store=)``: hits served, misses pooled, completions persisted as they
  land, failures retried then surfaced structurally.
* :mod:`repro.store.gc` — LRU eviction by size/age caps.
* :mod:`repro.store.cli` — ``python -m repro.store``
  (``stats``/``verify``/``gc``/``invalidate``).

Results are bit-identical with the store off, cold, warm, or resumed
mid-sweep.
"""

from repro.store.backend import (
    DiskStore,
    StoreBackend,
    open_store,
    pack_result,
    unpack_result,
)
from repro.store.gc import GcReport, collect_garbage
from repro.store.journal import SweepJournal
from repro.store.keys import (
    RESULT_SCHEMA_VERSION,
    canonical_json,
    seed_fingerprint,
    sweep_key,
    task_key,
)
from repro.store.scheduler import run_tasks

__all__ = [
    "DiskStore",
    "StoreBackend",
    "open_store",
    "pack_result",
    "unpack_result",
    "GcReport",
    "collect_garbage",
    "SweepJournal",
    "RESULT_SCHEMA_VERSION",
    "canonical_json",
    "seed_fingerprint",
    "sweep_key",
    "task_key",
    "run_tasks",
]
