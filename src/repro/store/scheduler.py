"""Crash-safe, cache-aware task scheduling for Monte-Carlo sweeps.

:func:`run_tasks` is the store-backed execution path behind
:func:`repro.sim.runner.replicate` and
:func:`~repro.sim.runner.sweep_grid`.  For a list of independent tasks
(each a pure function of its key), it:

1. consults the :class:`~repro.store.backend.DiskStore` and serves
   every hit without computing (corrupt entries are dropped, counted,
   and recomputed — never served);
2. executes only the misses through
   :func:`repro.utils.parallel.parallel_map` with per-task error
   capture, so one crashing task cannot discard its siblings' work;
3. persists and journals each freshly computed task *as its chunk
   completes*, not at sweep end — a sweep killed at task 7,000 of
   10,000 leaves 7,000 results in the store and a journal recording
   them, and the same call with ``resume=True`` executes only the rest;
4. retries failed tasks up to ``retries`` extra rounds, then raises a
   structured :class:`~repro.errors.SchedulerError` naming every task
   that kept failing — after persisting everything that succeeded.

Observability: with a span sink attached, ``store.lookup`` closes
with the ``hits``/``misses``/``corrupt`` counts and each execution
round's ``store.execute`` with its ``attempt``, ``tasks`` and
``failures`` (the backend's ``store.put`` spans carry ``nbytes``); with
a tracer attached, each store operation emits a
:class:`~repro.obs.events.StoreAccess` event.  Both follow the
hoisted-guard convention of the engines.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Sequence

from repro.errors import SchedulerError, StoreCorruptionError
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.events import StoreAccess
from repro.sim.results import RunResult
from repro.store.backend import StoreBackend
from repro.store.journal import SweepJournal
from repro.store.keys import sweep_key
from repro.utils.parallel import TaskFailure, parallel_map

__all__ = ["run_tasks"]

#: ``progress(done, total, recent_results)`` — the shape
#: :class:`repro.obs.progress.SweepProgress` accepts.
ProgressHook = Callable[[int, int, Sequence[Any]], None]


def _run_indexed(
    execute: Callable[[Any], RunResult], item: tuple[int, Any]
) -> tuple[int, RunResult]:
    """Worker wrapper: carry the task's input index across the pool."""
    index, task = item
    return index, execute(task)


def _run_indexed_block(
    batch_execute: Callable[[Sequence[Any]], Sequence[RunResult]],
    items: Sequence[tuple[int, Any]],
) -> list[tuple[int, RunResult]]:
    """Worker wrapper for one replication block: indices ride along."""
    block_results = batch_execute([task for _, task in items])
    return [
        (index, result)
        for (index, _), result in zip(items, block_results, strict=True)
    ]


class _Recorder:
    """Parent-side completion hook: persist, journal, report progress.

    Runs inside ``parallel_map``'s progress callback, i.e. in the
    parent process as each chunk finishes — that is what makes the
    sweep crash-safe with a process pool (workers only compute; all
    store writes happen here, in completion order).
    """

    def __init__(
        self,
        store: StoreBackend | None,
        journal: SweepJournal | None,
        keys: Sequence[str],
        total: int,
        done: int,
        progress: ProgressHook | None,
    ) -> None:
        self.store = store
        self.journal = journal
        self.keys = keys
        self.total = total
        self.done = done
        self.progress = progress

    def record(self, index: int, result: RunResult) -> None:
        self.done += 1
        if self.store is not None:
            nbytes = self.store.put(self.keys[index], [result])
            tracer = obs_trace.get_tracer()
            emit = tracer.emit if tracer.enabled else None
            if emit is not None:
                emit(StoreAccess("put", self.keys[index], 1, nbytes))
        if self.journal is not None:
            self.journal.append(index, self.keys[index])

    def __call__(self, _done: int, _total: int, chunk: Sequence[Any]) -> None:
        fresh = []
        for item in chunk:
            if isinstance(item, TaskFailure):
                continue
            if isinstance(item, list):
                # One replication block: a list of (index, result) pairs.
                # Recording them individually keeps persistence, the
                # journal, and the progress hook in run units, so
                # batching never changes what lands in the store or
                # what ``done/total`` mean.
                for index, result in item:
                    self.record(index, result)
                    fresh.append(result)
                continue
            index, result = item
            self.record(index, result)
            fresh.append(result)
        if self.progress is not None:
            self.progress(self.done, self.total, fresh)


def run_tasks(
    execute: Callable[[Any], RunResult],
    tasks: Sequence[Any],
    keys: Sequence[str],
    *,
    store: StoreBackend | None = None,
    resume: bool = False,
    workers: int | None = 1,
    retries: int = 1,
    backoff: float = 0.05,
    progress: ProgressHook | None = None,
    batch_execute: Callable[[Sequence[Any]], Sequence[RunResult]] | None = None,
    block_of: Sequence[int] | None = None,
) -> list[RunResult]:
    """Execute ``tasks`` through the store, returning results in order.

    Parameters
    ----------
    execute:
        Picklable per-task worker (the runner's ``_execute``).
    tasks, keys:
        Parallel sequences: ``keys[i]`` is the content-addressed key of
        ``tasks[i]``.
    batch_execute, block_of:
        Optional replication-block dispatch: ``block_of[i]`` assigns
        task ``i`` to a block, and the first execution round hands each
        block of cache misses to ``batch_execute`` as one pool task
        (blocks re-form over the misses, so a warm store shrinks blocks
        instead of recomputing hits).  Keys, persistence, the journal,
        and progress all stay per *task* — batching is an execution
        strategy, never part of a task's identity.  Retry rounds fall
        back to ``execute`` per task, isolating any member that fails.
    store:
        The result store (a :class:`~repro.store.backend.DiskStore`,
        bare or read-through); ``None`` degrades to plain
        :func:`~repro.utils.parallel.parallel_map` semantics (still
        with per-task capture and retry).
    resume:
        Reuse this sweep's existing journal, appending to it, instead
        of starting a fresh one.  Correctness never depends on the
        flag — hits come from the store either way; a journaled task
        whose entry was evicted or corrupted is simply recomputed.
    workers:
        As in :func:`~repro.utils.parallel.parallel_map`.
    retries:
        Extra execution rounds for failed tasks before giving up.
    backoff:
        Base delay (seconds) before retry round ``k``, growing as
        ``backoff * 2**(k-1)`` — a deterministic, jitter-free schedule
        (same sweep, same delays), so transient contention (an
        exhausted pool) gets room to clear without hammering.  ``0``
        restores immediate re-execution.
    progress:
        ``progress(done, total, recent_results)`` hook; ``done`` counts
        hits and completions together.

    Raises
    ------
    SchedulerError
        If any task still fails after ``retries`` extra rounds.  All
        successful tasks are already persisted and journaled.
    """
    if len(tasks) != len(keys):
        raise ValueError(f"{len(tasks)} tasks but {len(keys)} keys")
    n = len(tasks)
    results: list[RunResult | None] = [None] * n

    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None

    journal: SweepJournal | None = None
    if store is not None:
        h_journal = begin("store.journal", "store") if begin is not None else None
        journal = SweepJournal(
            store.journals_dir / f"{sweep_key(keys)}.jsonl",
            sweep_key(keys),
            n,
            resume=resume,
        )
        if h_journal is not None:
            h_journal.end(tasks=n)

    tracer = obs_trace.get_tracer()
    emit = tracer.emit if tracer.enabled else None

    # ------------------------------------------------------------------
    # phase 1: serve cache hits
    # ------------------------------------------------------------------
    missing: list[tuple[int, Any]] = []
    hits = 0
    corrupt = 0
    if store is not None:
        h_lookup = begin("store.lookup", "store") if begin is not None else None
        for i, key in enumerate(keys):
            try:
                batch = store.get(key)
            except StoreCorruptionError:
                # Detected, dropped, recomputed — never served.
                store.delete(key)
                corrupt += 1
                if emit is not None:
                    emit(StoreAccess("corrupt", key, 0, 0))
                batch = None
            if batch:
                results[i] = batch[0]
                hits += 1
                if journal is not None:
                    journal.append(i, key)
                if emit is not None:
                    emit(StoreAccess("hit", key, len(batch), 0))
            else:
                missing.append((i, tasks[i]))
        if emit is not None:
            for i, _ in missing:
                emit(StoreAccess("miss", keys[i], 0, 0))
        if h_lookup is not None:
            h_lookup.end(hits=hits, misses=len(missing), corrupt=corrupt)
    else:
        missing = list(enumerate(tasks))

    if progress is not None and hits:
        progress(hits, n, [r for r in results if r is not None][-1:])

    # ------------------------------------------------------------------
    # phase 2: execute misses, persisting as chunks complete
    # ------------------------------------------------------------------
    if batch_execute is not None and block_of is not None and len(block_of) != n:
        raise ValueError(f"{n} tasks but {len(block_of)} block assignments")
    recorder = _Recorder(store, journal, keys, n, hits, progress)
    pending = missing
    failures: list[TaskFailure] = []
    rounds = 0
    for attempt in range(retries + 1):
        if not pending:
            break
        rounds = attempt + 1
        if attempt and backoff > 0:
            # Deterministic exponential schedule — no jitter, so a
            # re-run of the same failing sweep waits identically.
            time.sleep(backoff * 2 ** (attempt - 1))
        h_exec = begin("store.execute", "store") if begin is not None else None
        n_round = len(pending)
        if batch_execute is not None and block_of is not None and attempt == 0:
            # Re-form blocks over the misses only: pending tasks with
            # the same block id stay together as one pool task.
            blocks: list[list[tuple[int, Any]]] = []
            prev_bid: int | None = None
            for item in pending:
                bid = block_of[item[0]]
                if not blocks or bid != prev_bid:
                    blocks.append([])
                    prev_bid = bid
                blocks[-1].append(item)
            outcome = parallel_map(
                partial(_run_indexed_block, batch_execute),
                blocks,
                workers=workers,
                progress=recorder,
                return_exceptions=True,
            )
            failures = []
            retry_items: list[tuple[int, Any]] = []
            for position, item in enumerate(outcome):
                if isinstance(item, TaskFailure):
                    # The whole block failed together; every member is
                    # retried individually in the next round.
                    for task_index, task in blocks[position]:
                        failures.append(
                            TaskFailure(task_index, item.error, item.traceback_str)
                        )
                        retry_items.append((task_index, task))
                else:
                    for index, result in item:
                        results[index] = result
            pending = retry_items
            if h_exec is not None:
                h_exec.end(attempt=attempt, tasks=n_round, failures=len(failures))
            continue
        outcome = parallel_map(
            partial(_run_indexed, execute),
            pending,
            workers=workers,
            progress=recorder,
            return_exceptions=True,
        )
        failures = []
        retry_items = []
        for position, item in enumerate(outcome):
            if isinstance(item, TaskFailure):
                task_index = pending[position][0]
                failures.append(
                    TaskFailure(task_index, item.error, item.traceback_str)
                )
                retry_items.append(pending[position])
            else:
                index, result = item
                results[index] = result
        pending = retry_items
        if h_exec is not None:
            h_exec.end(attempt=attempt, tasks=n_round, failures=len(failures))

    if journal is not None:
        journal.close()
    if store is not None:
        store.flush_index()

    if failures:
        shown = ", ".join(str(f.index) for f in failures[:10])
        more = "" if len(failures) <= 10 else f" (+{len(failures) - 10} more)"
        raise SchedulerError(
            f"{len(failures)}/{n} task(s) failed after {rounds} attempt"
            f"{'' if rounds == 1 else 's'} ({retries} retr"
            f"{'y' if retries == 1 else 'ies'}, backoff={backoff:g}s) "
            f"at indices [{shown}]{more}; "
            f"first: {type(failures[0].error).__name__}: {failures[0].error}. "
            "Completed tasks are persisted; re-run with resume=True to "
            "retry only the failures.",
            tuple((f.index, keys[f.index], f.error) for f in failures),
            attempts=rounds,
        ) from failures[0].error

    return [r for r in results if r is not None]
