"""Process-parallel map for embarrassingly parallel Monte-Carlo work.

The simulation experiments in Sec. 5 of the paper average 30 independent
runs per ``(rho, p)`` grid point; those runs share nothing, so a process
pool is the right tool.  This module wraps
:class:`concurrent.futures.ProcessPoolExecutor` for its one caller,
:func:`repro.store.scheduler.run_tasks`, whose items are replication
blocks:

* **serial fallback** — ``workers=1``, a single usable CPU, or fewer
  than :data:`MIN_PARALLEL` items run in-process, which keeps tests
  debuggable and avoids fork overhead for small lists;
* **deterministic ordering** — results always come back in input order,
  whatever the completion order was;
* **chunking** — items are submitted in contiguous chunks, about
  :data:`CHUNKS_PER_WORKER` per worker, to amortize pickling, following
  the mpi4py/HPC guidance of communicating few large messages rather
  than many small ones;
* **per-task error capture** — an exception in one task never discards
  its siblings' results: it becomes a :class:`TaskFailure` (input index,
  exception, traceback) at the task's input position.  So does every
  task of a chunk whose worker died (an OOM kill, a signal), which the
  pool reports as :class:`~concurrent.futures.BrokenExecutor`; the
  scheduler's retry round runs them again in a fresh pool.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar, Union

from repro.utils.validation import check_positive_int

__all__ = ["parallel_map", "pool_size", "default_workers", "TaskFailure"]

T = TypeVar("T")
R = TypeVar("R")

#: Work lists shorter than this run in-process: pool startup would
#: dominate.
MIN_PARALLEL = 4

#: Chunks submitted per worker: a few each, so a worker that drew cheap
#: items takes more (dynamic load balancing without per-item dispatch).
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class TaskFailure:
    """One task of a :func:`parallel_map` call raised.

    Attributes
    ----------
    index:
        Position of the failed task in the *input* work list.
    error:
        The exception the task raised (picklable exceptions survive the
        pool boundary verbatim), or the pool's ``BrokenExecutor`` when
        the worker running it died.
    traceback_str:
        The worker-side formatted traceback, for diagnostics — the
        original traceback object cannot cross process boundaries.
    """

    index: int
    error: BaseException
    traceback_str: str = ""

    def __str__(self) -> str:
        return f"task {self.index}: {type(self.error).__name__}: {self.error}"


def default_workers() -> int:
    """The worker count ``workers=None`` resolves to: the usable CPUs.

    Usable CPUs are the process's affinity set where the platform
    exposes it: in a cpuset-limited container ``os.cpu_count()`` counts
    the host's CPUs, and a pool that size would oversubscribe.  No CPU
    is held back for the parent: while the pool computes, the scheduler
    only keys, persists and journals (~6 % of a cold sweep).
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1  # pragma: no cover - macOS / Windows


def pool_size(workers: int | None, n_items: int) -> int:
    """The processes :func:`parallel_map` runs ``n_items`` items on.

    ``None`` resolves through :func:`default_workers`; ``1`` means
    in-process, as does any list shorter than :data:`MIN_PARALLEL`.
    """
    if workers is None:
        workers = default_workers()
    workers = check_positive_int("workers", workers)
    return 1 if n_items < MIN_PARALLEL else workers


def _run_chunk(
    fn: Callable[[T], R], chunk: Sequence[T], start: int
) -> list[Union[R, TaskFailure]]:
    """Apply ``fn`` to a contiguous chunk, capturing per-task failures.

    ``start`` is the chunk's offset in the full work list, so a
    :class:`TaskFailure` reports the task's *input* index.
    """
    out: list[Union[R, TaskFailure]] = []
    for offset, item in enumerate(chunk):
        try:
            out.append(fn(item))
        except Exception as exc:  # deliberate: captured, never swallowed
            out.append(TaskFailure(start + offset, exc, traceback.format_exc()))
    return out


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
    progress: Callable[[int, int, Sequence[Union[R, TaskFailure]]], None],
) -> list[Union[R, TaskFailure]]:
    """Apply ``fn`` to every item, optionally across worker processes.

    Parameters
    ----------
    fn:
        A picklable callable (a top-level function).
    items:
        The work list; it is materialized once so results can be returned
        in input order.
    workers:
        Process count.  ``None`` uses :func:`default_workers`; ``1`` forces
        the serial path (see :func:`pool_size`).  The pool is joined
        before the call returns.
    progress:
        ``progress(done, total, chunk_results)`` hook, called in the
        parent process after each item (serial path) or each finished
        chunk (pool path), in *completion* order.  Chunk results may
        contain :class:`TaskFailure` records.  The returned list is
        still in input order.

    Returns
    -------
    list
        ``[fn(x) for x in items]`` in input order, with a
        :class:`TaskFailure` at the position of every task that raised
        or whose worker died; every sibling result is preserved.
    """
    work = list(items)
    workers = pool_size(workers, len(work))
    if workers == 1:
        results: list[Union[R, TaskFailure]] = []
        for i, item in enumerate(work):
            try:
                results.append(fn(item))
            except Exception as exc:  # deliberate: captured, never swallowed
                results.append(TaskFailure(i, exc, traceback.format_exc()))
            progress(len(results), len(work), results[-1:])
        return results

    chunk_size = -(-len(work) // (CHUNKS_PER_WORKER * workers))
    starts = range(0, len(work), chunk_size)
    chunks = [work[s : s + chunk_size] for s in starts]
    parts: list[list[Union[R, TaskFailure]]] = [[] for _ in chunks]
    done = 0
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        # submit/as_completed so the hook fires as chunks finish, not in
        # input order; parts are reassembled positionally afterwards.
        futures = {
            pool.submit(_run_chunk, fn, chunk, start): i
            for i, (chunk, start) in enumerate(zip(chunks, starts, strict=True))
        }
        for fut in as_completed(futures):
            i = futures[fut]
            try:
                part = fut.result()
            except BrokenExecutor as exc:
                # A worker died: the pool fails this chunk (and every
                # chunk still pending) as a whole.
                trace = traceback.format_exc()
                part = [
                    TaskFailure(starts[i] + k, exc, trace)
                    for k in range(len(chunks[i]))
                ]
            parts[i] = part
            done += len(part)
            progress(done, len(work), part)
    return [r for part in parts for r in part]
