"""The asyncio query service: single-flight coalescing, per-tick batching.

:class:`QueryService` answers :class:`~repro.serve.protocol.ServeRequest`
questions on top of the store and the scheduler.  Three mechanisms make
it serve many concurrent clients with one compute budget:

* **Single-flight map.**  Every in-flight simulation task key owns at
  most one future.  A request whose key is already being computed
  awaits that future instead of scheduling again — K identical
  concurrent queries cost one scheduler run (pinned by tests).
* **Per-tick miss batching.**  New misses accumulate on a pending list
  and a flush callback scheduled with ``call_soon`` drains them once
  the current event-loop tick has let every ready request register —
  concurrent distinct queries merge into one
  :func:`~repro.store.scheduler.run_tasks` call instead of one each.
* **Read-through memory tier.**  Memory-hot keys resolve synchronously
  (:meth:`~repro.serve.memory.MemoryTier.peek`) without touching disk
  or the executor, which is what keeps warm-query latency in the
  single-digit-millisecond budget the perf gate enforces.

Requests carry a per-attempt ``timeout`` and a bounded, deterministic
(jitter-free) exponential retry, mirroring the scheduler's own backoff
discipline.  Shared futures are awaited through ``asyncio.shield`` so
one waiter's timeout never cancels a computation other waiters (or a
later retry) still need.

The service itself performs no randomness — the ``repro.serve.``
effect contract allows ``io``/``time`` and forbids ``rng`` — all
compute flows through the two injected callables from
:mod:`repro.serve.compute`, which is also what lets tests substitute
counting or failing fakes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Mapping, Protocol, Sequence

from repro.errors import ConfigurationError, ServeError
from repro.obs import spans as obs_spans
from repro.optimize.spec import Evaluation, best_evaluation, evaluate_runs
from repro.serve import compute
from repro.serve.compute import TaskPlan
from repro.serve.memory import ReadThroughStore
from repro.serve.protocol import ServeRequest, parse_request, request_key
from repro.sim.results import RunResult
from repro.store.backend import StoreBackend

__all__ = ["ServiceStats", "QueryService"]

PlanFn = Callable[[ServeRequest], TaskPlan]


class ExecuteFn(Protocol):
    """The miss-batch executor the service delegates compute to."""

    def __call__(
        self,
        tasks: Sequence[tuple],
        keys: Sequence[str],
        store: StoreBackend | None,
        *,
        workers: int | None = 1,
        retries: int = 1,
        backoff: float = 0.05,
    ) -> list[RunResult]: ...


@dataclasses.dataclass
class ServiceStats:
    """Always-on coalescing/latency accounting (plain ints, no guards).

    ``requested`` counts task-key lookups, which split exactly into
    ``coalesced`` (joined an in-flight future), ``memory_hits``
    (served synchronously from the memory tier), and ``dispatched``
    (entered a miss batch — including disk hits, which the scheduler
    resolves).  The coalescing ratio therefore isolates the
    single-flight win: how many lookups each unit of downstream work
    answered.
    """

    requested: int = 0
    coalesced: int = 0
    dispatched: int = 0
    memory_hits: int = 0
    batches: int = 0
    queries: int = 0
    retries: int = 0
    timeouts: int = 0

    def coalescing_ratio(self) -> float:
        served = self.dispatched + self.memory_hits
        return self.requested / served if served else float("nan")

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["coalescing_ratio"] = self.coalescing_ratio()
        return doc


class QueryService:
    """Coalescing asyncio front end over the store and scheduler.

    Parameters
    ----------
    store:
        A store backend, a directory path, an existing
        :class:`~repro.serve.memory.ReadThroughStore`, or ``None``
        (no caching: every request computes, coalescing still applies).
        Anything not already read-through is wrapped in one.
    plan, execute:
        The compute bridge; default to
        :func:`repro.serve.compute.plan_tasks` /
        :func:`~repro.serve.compute.execute_tasks`.
    workers, scheduler_retries, scheduler_backoff:
        Forwarded to the executor callable (the scheduler's own
        parallelism and retry discipline).
    timeout:
        Seconds one resolution attempt may take before the request
        retries (the shared computation itself is never cancelled).
    retries, backoff:
        Bounded request-level retry: ``retries`` extra attempts with a
        deterministic ``backoff * 2**(k-1)`` schedule — the same
        jitter-free discipline as the scheduler.
    memory_entries:
        Capacity of the read-through tier when this service creates it.
    executor_threads:
        Threads running miss batches; batches beyond this queue.
    """

    def __init__(
        self,
        store: StoreBackend | ReadThroughStore | str | os.PathLike[str] | None,
        *,
        plan: PlanFn | None = None,
        execute: ExecuteFn | None = None,
        workers: int | None = 1,
        scheduler_retries: int = 1,
        scheduler_backoff: float = 0.05,
        timeout: float = 30.0,
        retries: int = 1,
        backoff: float = 0.05,
        memory_entries: int = 1024,
        executor_threads: int = 2,
    ) -> None:
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if store is None or isinstance(store, ReadThroughStore):
            self.store: ReadThroughStore | None = store
        else:
            self.store = ReadThroughStore(store, max_entries=memory_entries)
        self._plan_fn: PlanFn = plan if plan is not None else compute.plan_tasks
        self._execute_fn: ExecuteFn = (
            execute if execute is not None else compute.execute_tasks
        )
        self.workers = workers
        self.scheduler_retries = scheduler_retries
        self.scheduler_backoff = scheduler_backoff
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.stats = ServiceStats()
        self._inflight: dict[str, asyncio.Future[RunResult]] = {}
        self._pending: list[tuple[str, tuple]] = []
        self._flush_scheduled = False
        self._batch_tasks: set[asyncio.Task[None]] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-serve"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # request entry point
    # ------------------------------------------------------------------
    async def query(
        self, request: ServeRequest | Mapping[str, Any] | str
    ) -> dict:
        """Answer one request; returns a JSON-safe response document.

        ``bound`` requests return the evaluation of their single
        probability; ``objective`` requests return every candidate's
        evaluation plus the best feasible one under the optimizer's
        ordering (``None`` when nothing is feasible).
        """
        if self._closed:
            raise ServeError("service is closed")
        if not isinstance(request, ServeRequest):
            request = parse_request(request)
        prof = obs_spans.profiler()
        begin = prof.begin if prof.enabled else None
        h = begin("serve.query", "serve") if begin is not None else None
        self.stats.queries += 1
        plan = self._plan_fn(request)
        results = await self._resolve_many(plan.keys, plan.tasks)
        query = request.query()
        evaluations = [
            evaluate_runs(results[plan.slices[p]], query, p) for p in request.ps
        ]
        best = (
            evaluations[0]
            if request.kind == "bound"
            else best_evaluation(evaluations, query)
        )
        feasible = best is not None and best.feasible
        if h is not None:
            h.end(tasks=len(plan), feasible=int(feasible))
        return {
            "id": request_key(request)[:16],
            "kind": request.kind,
            "rho": request.rho,
            "tasks": len(plan),
            "evaluations": [_evaluation_dict(ev) for ev in evaluations],
            "best": None if best is None else _evaluation_dict(best),
            "feasible": feasible,
        }

    # ------------------------------------------------------------------
    # resolution: single-flight + per-tick batching
    # ------------------------------------------------------------------
    async def _resolve_many(
        self, keys: Sequence[str], tasks: Sequence[tuple]
    ) -> list[RunResult]:
        attempts = self.retries + 1
        for attempt in range(attempts):
            if attempt:
                self.stats.retries += 1
                # Deterministic, jitter-free schedule (scheduler's twin).
                await asyncio.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                gathered = asyncio.gather(
                    *(self._resolve(k, t) for k, t in zip(keys, tasks))
                )
                return list(await asyncio.wait_for(gathered, self.timeout))
            except asyncio.TimeoutError:
                # Cancelling the gather abandoned only *this* request's
                # waits; shared futures keep computing for the retry.
                self.stats.timeouts += 1
        raise ServeError(
            f"request timed out after {attempts} attempt"
            f"{'' if attempts == 1 else 's'} x {self.timeout:g}s "
            f"({len(keys)} task(s); backoff={self.backoff:g}s)"
        )

    async def _resolve(self, key: str, task: tuple) -> RunResult:
        self.stats.requested += 1
        existing = self._inflight.get(key)
        if existing is not None:
            # Single flight: join the computation already under way.
            self.stats.coalesced += 1
            return await asyncio.shield(existing)
        if self.store is not None:
            batch = self.store.memory.peek(key)
            if batch:
                self.stats.memory_hits += 1
                return batch[0]
        loop = asyncio.get_running_loop()
        fut: asyncio.Future[RunResult] = loop.create_future()
        self._inflight[key] = fut
        self._pending.append((key, task))
        self.stats.dispatched += 1
        if not self._flush_scheduled:
            # One flush per event-loop tick: every request that is
            # ready *now* registers its misses before the drain runs.
            self._flush_scheduled = True
            loop.call_soon(self._flush)
        return await asyncio.shield(fut)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.stats.batches += 1
        task = asyncio.get_running_loop().create_task(self._run_batch(batch))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: list[tuple[str, tuple]]) -> None:
        keys = [key for key, _ in batch]
        tasks = [task for _, task in batch]
        prof = obs_spans.profiler()
        begin = prof.begin if prof.enabled else None
        h = begin("serve.batch", "serve") if begin is not None else None
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor,
                partial(
                    self._execute_fn,
                    tasks,
                    keys,
                    self.store,
                    workers=self.workers,
                    retries=self.scheduler_retries,
                    backoff=self.scheduler_backoff,
                ),
            )
        except Exception as exc:
            for key in keys:
                fut = self._inflight.pop(key, None)
                if fut is not None and not fut.done():
                    fut.set_exception(exc)
                    # Mark retrieved: a timed-out waiter may never
                    # collect it, and that must not warn at gc time.
                    fut.exception()
            if h is not None:
                h.end(tasks=len(batch), failed=1)
            return
        for key, result in zip(keys, results):
            fut = self._inflight.pop(key, None)
            if fut is not None and not fut.done():
                fut.set_result(result)
        if h is not None:
            h.end(tasks=len(batch), failed=0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait for every in-flight batch to finish."""
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain, flush the store index, and release the executor."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        if self.store is not None:
            self.store.flush_index()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService(store={self.store!r}, "
            f"inflight={len(self._inflight)})"
        )


def _evaluation_dict(ev: Evaluation) -> dict:
    """An :class:`~repro.optimize.spec.Evaluation` as JSON-safe dict."""
    return dataclasses.asdict(ev)
