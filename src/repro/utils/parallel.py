"""Process-parallel map for embarrassingly parallel Monte-Carlo work.

The simulation experiments in Sec. 5 of the paper average 30 independent
runs per ``(rho, p)`` grid point; those runs share nothing, so a process
pool is the right tool.  This module wraps
:class:`concurrent.futures.ProcessPoolExecutor` with the conventions the
rest of the library relies on:

* **serial fallback** — ``workers=1`` (or tiny workloads) runs in-process,
  which keeps tests debuggable and avoids fork overhead for small grids;
* **deterministic ordering** — results always come back in input order,
  whatever the completion order was;
* **chunking** — tasks are submitted in contiguous chunks to amortize
  pickling, following the mpi4py/HPC guidance of communicating few large
  messages rather than many small ones;
* **per-task error capture** — an exception in one task never discards
  its siblings' results.  Failures are recorded as :class:`TaskFailure`
  (input index, exception, traceback) and either raised together as one
  :class:`~repro.errors.ParallelExecutionError` naming the failed
  indices (default) or returned in-place when
  ``return_exceptions=True`` — the retry path of
  :mod:`repro.store.scheduler` relies on the latter.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar, Union

from repro.errors import ParallelExecutionError
from repro.utils.validation import check_positive_int

__all__ = ["parallel_map", "default_workers", "TaskFailure"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class TaskFailure:
    """One task of a :func:`parallel_map` call raised.

    Attributes
    ----------
    index:
        Position of the failed task in the *input* work list.
    error:
        The exception the task raised (picklable exceptions survive the
        pool boundary verbatim).
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
    """A conservative default worker count: usable CPUs minus one.

    Usable CPUs are the process's affinity set where the platform
    exposes it: in a cpuset-limited container ``os.cpu_count()`` counts
    the host's CPUs, and a pool that size would oversubscribe.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - macOS / Windows
        cpus = os.cpu_count() or 2
    return max(1, cpus - 1)


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


def _finalize(
    results: list[Union[R, TaskFailure]], return_exceptions: bool
) -> list[Union[R, TaskFailure]]:
    """Raise a structured error for captured failures unless asked not to."""
    if return_exceptions:
        return results
    failures = tuple(r for r in results if isinstance(r, TaskFailure))
    if failures:
        indices = ", ".join(str(f.index) for f in failures[:10])
        more = "" if len(failures) <= 10 else f" (+{len(failures) - 10} more)"
        raise ParallelExecutionError(
            f"{len(failures)}/{len(results)} task(s) failed at indices "
            f"[{indices}]{more}; first: {failures[0]}",
            failures,
        ) from failures[0].error
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    min_parallel: int = 4,
    progress: Callable[[int, int, Sequence[Union[R, TaskFailure]]], None] | None = None,
    return_exceptions: bool = False,
) -> list[Union[R, TaskFailure]]:
    """Apply ``fn`` to every item, optionally across worker processes.

    Parameters
    ----------
    fn:
        A picklable callable (top-level function or partial of one).
    items:
        The work list; it is materialized once so results can be returned
        in input order.
    workers:
        Process count.  ``None`` uses :func:`default_workers`; ``1`` forces
        the serial path.
    chunk_size:
        Items per submitted task.  ``None`` picks ``ceil(len/ (4*workers))``
        so each worker sees a few chunks (dynamic load balancing without
        per-item dispatch overhead).
    min_parallel:
        Work lists shorter than this run serially regardless of ``workers``;
        pool startup would dominate.
    progress:
        Optional ``progress(done, total, chunk_results)`` hook, called in
        the parent process after each item (serial path) or each finished
        chunk (pool path), in *completion* order.  Chunk results may
        contain :class:`TaskFailure` records.  The returned list is
        still in input order.
    return_exceptions:
        If true, a task that raises contributes a :class:`TaskFailure`
        at its input position instead of aborting the call; every
        sibling result is preserved.  If false (default), all tasks
        still run to completion, then one
        :class:`~repro.errors.ParallelExecutionError` reports every
        failed index.

    Returns
    -------
    list
        ``[fn(x) for x in items]`` in input order (with
        :class:`TaskFailure` placeholders when ``return_exceptions``).
    """
    work = list(items)
    if workers is None:
        workers = default_workers()
    workers = check_positive_int("workers", workers)
    if workers == 1 or len(work) < max(min_parallel, 2):
        results: list[Union[R, TaskFailure]] = []
        for i, item in enumerate(work):
            try:
                results.append(fn(item))
            except Exception as exc:  # deliberate: captured, never swallowed
                results.append(TaskFailure(i, exc, traceback.format_exc()))
            if progress is not None:
                progress(len(results), len(work), results[-1:])
        return _finalize(results, return_exceptions)

    if chunk_size is None:
        chunk_size = max(1, -(-len(work) // (4 * workers)))
    chunk_size = check_positive_int("chunk_size", chunk_size)
    starts = list(range(0, len(work), chunk_size))
    chunks = [work[s : s + chunk_size] for s in starts]

    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        if progress is None:
            pooled: list[Union[R, TaskFailure]] = []
            for part in pool.map(_run_chunk, [fn] * len(chunks), chunks, starts):
                pooled.extend(part)
            return _finalize(pooled, return_exceptions)
        # submit/as_completed so the hook fires as chunks finish, not in
        # input order; parts are reassembled positionally afterwards.
        futures = {
            pool.submit(_run_chunk, fn, chunk, start): i
            for i, (chunk, start) in enumerate(zip(chunks, starts, strict=True))
        }
        parts: list[list[Union[R, TaskFailure]] | None] = [None] * len(chunks)
        done = 0
        for fut in as_completed(futures):
            part = fut.result()
            parts[futures[fut]] = part
            done += len(part)
            progress(done, len(work), part)
    flat = [r for part in parts for r in part]  # type: ignore[union-attr]
    return _finalize(flat, return_exceptions)
