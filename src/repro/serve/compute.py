"""The serve/compute bridge: planning and executing simulation tasks.

This module is the *only* place where the serve tier touches the
simulation stack, and therefore the only place in ``repro.serve``
allowed to carry the ``rng`` effect (spawning per-replication seeds,
running the engines).  The service proper stays ``io``/``time`` —
enforced by the ``repro.serve.`` contract in the flow analysis — and
reaches compute exclusively through injected callables, so tests swap
in counting/failing fakes without touching asyncio internals.

Planning mirrors :func:`repro.sim.runner.replicate` exactly: a fresh
``SeedSequence(seed)`` is spawned into ``replications`` children *per
probability*, so (a) serve task keys are identical to offline
``replicate`` keys — warm stores are shared across entry points — and
(b) every candidate probability of one request reuses the same seed
children (common random numbers across ``ps``).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.serve.protocol import ServeRequest
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.runner import (
    DEFAULT_BLOCK_SIZE,
    _block_assignment,
    _execute,
    _execute_block,
)
from repro.store.backend import StoreBackend
from repro.store.keys import task_key
from repro.store.scheduler import run_tasks
from repro.utils.rng import as_seed_sequence

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
    keys: list[str] = []
    slices: dict[float, slice] = {}
    for p in request.ps:
        policy = ProbabilisticRelay(p)
        # Fresh root per probability: children (and so task keys) match
        # replicate(policy, config, replications, seed=request.seed).
        children = as_seed_sequence(request.seed).spawn(request.replications)
        start = len(tasks)
        for child in children:
            tasks.append(
                (policy, config, child, request.engine, request.alignment, None)
            )
            keys.append(
                task_key(policy, config, child, request.engine, request.alignment)
            )
        slices[p] = slice(start, len(tasks))
    return TaskPlan(tasks, keys, slices)


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
    depends on which front door asked for it.  Misses run in
    replication blocks as in :func:`~repro.sim.runner.sweep_grid`: a
    block is a run of consecutive tasks sharing policy, config and
    engine (one request's replications of one ``p``), at most
    :data:`~repro.sim.runner.DEFAULT_BLOCK_SIZE` long.  DES tasks stay
    one per block.
    """
    groups: list[int] = []
    prev: tuple | None = None
    for task in tasks:
        family = (task[0], task[1], task[3])
        if task[3] != "vector" or family != prev:
            groups.append(len(groups))
        else:
            groups.append(groups[-1])
        prev = family
    return run_tasks(
        _execute,
        list(tasks),
        list(keys),
        store=store,
        workers=workers,
        retries=retries,
        backoff=backoff,
        batch_execute=_execute_block,
        block_of=_block_assignment(groups, DEFAULT_BLOCK_SIZE),
    )
