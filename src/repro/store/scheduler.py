"""Crash-safe, cache-aware task scheduling for Monte-Carlo sweeps.

:func:`run_tasks` is the one execution path behind
:func:`repro.sim.runner.replicate`, :func:`~repro.sim.runner.sweep_grid`
and :mod:`repro.serve`, with or without a store.  For a list of
independent tasks (each a pure function of its key), it:

1. consults the :class:`~repro.store.backend.DiskStore`, when there is
   one, and serves every hit without computing (corrupt entries are
   dropped, counted, and recomputed — never served);
2. executes only the misses, in replication blocks, through
   :func:`repro.utils.parallel.parallel_map` with per-block error
   capture, so one crashing block cannot discard its siblings' work;
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
hoisted-guard convention of the engines.  A pooled round is traced as
whole as a serial one: each pool worker captures its block's spans and
slot events (only what the parent records) and sends them home with
the block's results; the parent re-emits them, block by block, before
persisting the block.  Its ``runner.block`` spans nest under the
round's ``store.execute``, and each block's slot events stay contiguous
and in replication order.  Blocks arrive in completion order, where a
serial run emits them in task order.
"""

from __future__ import annotations

import contextvars
import time
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import SchedulerError, StoreCorruptionError
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.events import StoreAccess, TraceEvent
from repro.obs.spans import SpanEvent
from repro.sim.results import RunResult
from repro.store.backend import StoreBackend
from repro.store.journal import SweepJournal
from repro.store.keys import sweep_key
from repro.utils.parallel import TaskFailure, parallel_map, pool_size

__all__ = ["run_tasks"]

#: ``progress(done, total, recent_results)`` — the shape
#: :class:`repro.obs.progress.SweepProgress` accepts.
ProgressHook = Callable[[int, int, Sequence[Any]], None]


class _Block(NamedTuple):
    """One pool task: a block of ``(index, task)`` pairs, and flags.

    The flags travel with the block instead of being read from the
    state a forked worker inherits, so a spawn-started pool captures
    the same.
    """

    pooled: bool  #: the block runs in a pool worker, not in the parent
    spans: bool  #: the parent records spans
    events: bool  #: the parent records slot events
    items: list[tuple[int, Any]]


class _Ran(NamedTuple):
    """A block's ``(index, result)`` pairs, plus a pool worker's telemetry."""

    pairs: list[tuple[int, RunResult]]
    spans: Sequence[SpanEvent] = ()
    epoch: float = 0.0  #: the worker profiler's clock origin for ``spans``
    events: Sequence[TraceEvent] = ()


def _run_block(block: _Block) -> _Ran:
    """Pool worker: run one block of ``(index, task)`` pairs.

    A named top-level function, not a ``partial``: it pickles, and the
    flow analysis follows it into the engines.  It looks
    :func:`repro.sim.runner.execute_block` up when the block runs, so a
    test can substitute the worker there.  Indices ride along.  In the
    parent (the serial path) the block emits into the parent's sinks as
    it runs; in a pool worker, :func:`_capture` runs it.
    """
    from repro.sim.runner import execute_block

    if block.pooled:
        return _capture(block)
    results = execute_block([task for _, task in block.items])
    return _Ran(
        [(index, result) for (index, _), result in zip(block.items, results, strict=True)]
    )


def _capture(block: _Block) -> _Ran:
    """Run a block in a pool worker, capturing what the parent records.

    Fork copied the parent's sinks, whose file handles and span ids
    are the parent's, and its open-span stack, whose ``store.execute``
    is not this block's parent.  The sinks are set aside while the
    block runs as if in the parent, in an empty context, and put back
    after it: dropped, a file sink would be collected here, and closing
    its copy of the parent's file object would write the parent's
    buffered lines into the parent's file a second time.
    """
    prof = obs_spans.profiler()
    tracer = obs_trace.get_tracer()
    span_sinks, event_sinks = prof.sinks, tracer.sinks
    for span_sink in span_sinks:
        prof.detach(span_sink)
    for event_sink in event_sinks:
        tracer.detach(event_sink)
    spans = obs_spans.SpanBuffer()
    events = obs_trace.RingBufferSink()
    if block.spans:
        prof.attach(spans)
    if block.events:
        tracer.attach(events)
    try:
        ran = contextvars.Context().run(_run_block, block._replace(pooled=False))
    finally:
        prof.detach(spans)
        tracer.detach(events)
        for span_sink in span_sinks:
            prof.attach(span_sink)
        for event_sink in event_sinks:
            tracer.attach(event_sink)
    return ran._replace(spans=spans.spans, epoch=prof.epoch, events=events.events)


class _Recorder:
    """Parent-side completion hook: persist, journal, report progress.

    Runs inside ``parallel_map``'s progress callback, i.e. in the
    parent process as each chunk finishes — that is what makes the
    sweep crash-safe with a process pool (workers only compute; all
    store writes happen here, in completion order).  It also re-emits
    the spans and slot events a pool worker sent home with its block.
    """

    def __init__(
        self,
        store: StoreBackend | None,
        journal: SweepJournal | None,
        keys: Sequence[str] | None,
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
        if self.store is None or self.keys is None:
            return
        key = self.keys[index]
        nbytes = self.store.put(key, [result])
        tracer = obs_trace.get_tracer()
        emit = tracer.emit if tracer.enabled else None
        if emit is not None:
            emit(StoreAccess("put", key, 1, nbytes))
        if self.journal is not None:
            self.journal.append(index, key)

    def __call__(self, _done: int, _total: int, chunk: Sequence[Any]) -> None:
        fresh = []
        for ran in chunk:
            if isinstance(ran, TaskFailure):
                continue
            # A pool worker's telemetry, re-emitted before the block's
            # store writes, as a serial run emits it.
            if ran.spans:
                obs_spans.profiler().adopt(ran.spans, ran.epoch)
            tracer = obs_trace.get_tracer()
            emit = tracer.emit if tracer.enabled else None
            if emit is not None:
                for event in ran.events:
                    emit(event)
            # Recording the block's results one by one keeps
            # persistence, the journal, and the progress hook in run
            # units, so blocking never changes what lands in the store
            # or what ``done/total`` mean.
            for index, result in ran.pairs:
                self.record(index, result)
                fresh.append(result)
        if self.progress is not None:
            self.progress(self.done, self.total, fresh)


def run_tasks(
    tasks: Sequence[Any],
    keys: Sequence[str] | None = None,
    *,
    store: StoreBackend | None = None,
    resume: bool = False,
    workers: int | None = 1,
    retries: int = 1,
    backoff: float = 0.05,
    progress: ProgressHook | None = None,
    block_of: Sequence[int] | None = None,
) -> list[RunResult]:
    """Execute ``tasks`` in blocks, through the store if any, in order.

    Parameters
    ----------
    tasks, keys:
        Runner task tuples (:func:`repro.sim.runner.point_tasks`) and
        their store keys, ``keys[i]`` for ``tasks[i]``; ``keys`` may be
        ``None`` when there is no store.
    block_of:
        Block id per task (:func:`repro.sim.runner.assign_blocks`);
        ``None`` makes every task a block of its own.  The first round
        hands each block of cache misses to
        :func:`repro.sim.runner.execute_block` as one pool task (blocks
        re-form over the misses, so a warm store shrinks blocks instead
        of recomputing hits); retry rounds run each failed task alone.
        Keys, persistence, the journal, and progress all stay per
        *task*: blocking is never part of a task's identity.
    store:
        The result store (a :class:`~repro.store.backend.DiskStore`,
        bare or read-through); ``None`` executes every task (still with
        per-block capture and retry) and persists nothing.
    resume:
        Reuse this sweep's existing journal, appending to it, instead
        of starting a fresh one.  Correctness never depends on the
        flag — hits come from the store either way; a journaled task
        whose entry was evicted or corrupted is simply recomputed.
    workers:
        As in :func:`~repro.utils.parallel.parallel_map`: ``None`` uses
        every usable CPU, ``1`` (default) runs in-process.  The pool is
        joined before each round ends.
    retries:
        Extra execution rounds for failed tasks (a task that raised, or
        whose pool worker died) before giving up.
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
        If any task still fails after ``retries`` extra rounds.  With a
        store, all successful tasks are already persisted and journaled.
    """
    n = len(tasks)
    if keys is not None and len(keys) != n:
        raise ValueError(f"{n} tasks but {len(keys)} keys")
    if store is not None and keys is None:
        raise ValueError("a store needs one key per task")
    if block_of is not None and len(block_of) != n:
        raise ValueError(f"{n} tasks but {len(block_of)} block assignments")
    results: list[RunResult | None] = [None] * n

    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None

    journal: SweepJournal | None = None
    if store is not None and keys is not None:
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
    if store is not None and keys is not None:
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
    # phase 2: execute misses in blocks, persisting as chunks complete
    # ------------------------------------------------------------------
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
        # First round: pending tasks that share a block id form one
        # block (over the misses only).  Retry rounds: blocks of one.
        ids = block_of if attempt == 0 and block_of is not None else range(n)
        blocks: list[list[tuple[int, Any]]] = []
        for item in pending:
            if blocks and ids[item[0]] == ids[blocks[-1][-1][0]]:
                blocks[-1].append(item)
            else:
                blocks.append([item])
        pool = pool_size(workers, len(blocks))
        outcome = parallel_map(
            _run_block,
            [_Block(pool > 1, begin is not None, emit is not None, b) for b in blocks],
            workers=pool,
            progress=recorder,
        )
        failures = []
        pending = []
        for block, ran in zip(blocks, outcome, strict=True):
            if isinstance(ran, TaskFailure):
                # The whole block failed together (it raised, or its
                # worker died); every member is retried on its own in
                # the next round, in a fresh pool.
                failures += [
                    TaskFailure(i, ran.error, ran.traceback_str) for i, _ in block
                ]
                pending += block
            else:
                for index, result in ran.pairs:
                    results[index] = result
        if h_exec is not None:
            h_exec.end(attempt=attempt, tasks=n_round, failures=len(failures))

    if journal is not None:
        journal.close()
    if store is not None:
        store.flush_index()

    if failures:
        shown = ", ".join(str(f.index) for f in failures[:10])
        more = "" if len(failures) <= 10 else f" (+{len(failures) - 10} more)"
        resume_hint = (
            " Completed tasks are persisted; re-run with resume=True to "
            "retry only the failures."
            if store is not None
            else ""
        )
        raise SchedulerError(
            f"{len(failures)}/{n} task(s) failed after {rounds} attempt"
            f"{'' if rounds == 1 else 's'} ({retries} retr"
            f"{'y' if retries == 1 else 'ies'}, backoff={backoff:g}s) "
            f"at indices [{shown}]{more}; "
            f"first: {type(failures[0].error).__name__}: {failures[0].error}."
            + resume_hint,
            tuple(
                (f.index, None if keys is None else keys[f.index], f.error)
                for f in failures
            ),
            attempts=rounds,
        ) from failures[0].error

    return [r for r in results if r is not None]
