"""The serve/compute bridge: planning and executing simulation tasks.

This module is the *only* place where the serve tier touches the
simulation stack, and therefore the only place in ``repro.serve``
allowed to carry the ``rng`` effect (spawning per-replication seeds,
running the engines).  The service proper stays ``io``/``time`` —
enforced by the ``repro.serve.`` contract in the flow analysis — and
reaches compute exclusively through injected callables, so tests swap
in counting/failing fakes without touching asyncio internals.

Planning goes through the runner's own planner,
:func:`repro.sim.runner.point_tasks`, once per probability with the
request's seed: so (a) serve task keys are the keys offline
``replicate`` computes — warm stores are shared across entry points —
and (b) every candidate probability of one request reuses the same seed
children (common random numbers across ``ps``).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.serve.protocol import ServeRequest
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.runner import assign_blocks, point_tasks, task_keys
from repro.store.backend import StoreBackend
from repro.store.scheduler import run_tasks

__all__ = ["TaskPlan", "plan_tasks", "execute_tasks"]


class TaskPlan:
    """One request's unit-of-work decomposition.

    ``tasks[i]`` is a runner task tuple, ``keys[i]`` its
    content-addressed store key; ``slices[p]`` selects the replication
    block of probability ``p`` out of both lists.
    """

    def __init__(
        self,
        tasks: list[tuple],
        keys: list[str],
        slices: dict[float, slice],
    ) -> None:
        self.tasks = tasks
        self.keys = keys
        self.slices = slices

    def __len__(self) -> int:
        return len(self.tasks)


def plan_tasks(request: ServeRequest) -> TaskPlan:
    """Decompose a request into runner tasks + store keys.

    Deterministic: the same request always plans the same keys (seeds
    are explicit in the request), which is what the service's
    single-flight map coalesces on.
    """
    config = SimulationConfig(
        analysis=AnalysisConfig(n_rings=request.n_rings, rho=request.rho)
    )
    tasks: list[tuple] = []
    slices: dict[float, slice] = {}
    for p in request.ps:
        start = len(tasks)
        # The request's seed roots every probability, as it roots
        # replicate(ProbabilisticRelay(p), config, replications, seed).
        tasks += point_tasks(
            ProbabilisticRelay(p),
            config,
            request.seed,
            request.replications,
            engine=request.engine,
            alignment=request.alignment,
        )
        slices[p] = slice(start, len(tasks))
    return TaskPlan(tasks, task_keys(tasks), slices)


# repro: allow(flow-effects) — the serve tier's one sanctioned compute door: delegates to run_tasks (io+rng) on an executor thread; reached only through the service's injected execute callable
def execute_tasks(
    tasks: Sequence[tuple],
    keys: Sequence[str],
    store: StoreBackend | None,
    *,
    workers: int | None = 1,
    retries: int = 1,
    backoff: float = 0.05,
) -> list[RunResult]:
    """Run one coalesced miss batch through the cache-aware scheduler.

    Hits are served from the store (including the read-through memory
    tier when ``store`` wraps one), misses execute, completions
    persist — exactly the offline path, so a result's provenance never
    depends on which front door asked for it.  Misses run in the
    replication blocks :func:`~repro.sim.runner.assign_blocks` forms,
    as offline sweeps do: one request's replications of one ``p`` share
    a block, and each DES task is a block of its own.
    """
    return run_tasks(
        list(tasks),
        list(keys),
        store=store,
        workers=workers,
        retries=retries,
        backoff=backoff,
        block_of=assign_blocks(tasks),
    )
