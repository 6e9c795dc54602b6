"""Monte-Carlo replication of broadcast simulations.

The paper's simulation figures average 30 independent runs per grid
point (Sec. 5).  :func:`point_tasks` plans one point: one task per
seed-sequence child spawned from the point's root, so runs are
reproducible and order-independent.  :func:`replicate` runs one point;
:func:`sweep_grid` is the grid-scale entry point: it flattens an entire
``(rho, p)`` sweep into one task list so a single process pool serves
every grid point (instead of paying pool startup per point), and can
optionally reuse one sampled deployment per ``(rho, replication)`` cell
across all probabilities (common random numbers).

Every task list runs through :func:`repro.store.scheduler.run_tasks` in
the replication blocks :func:`assign_blocks` forms: a vector block
advances through :func:`~repro.sim.engine.run_broadcast_batch`, traced
or not, and each DES task is a block of its own (:func:`execute_block`).
Both entry points accept ``store=`` — any store backend, or a path —
to run through the content-addressed result store: cached tasks are
served without computing, fresh completions are persisted and journaled
as they land (so a killed sweep resumes where it died via
``resume=True``), and results are bit-identical to a storeless run.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.network.deployment import DiskDeployment
from repro.obs import progress as obs_progress
from repro.obs import provenance as obs_provenance
from repro.obs import spans as obs_spans
from repro.protocols.base import RelayPolicy
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.utils.validation import check_in, check_positive_int

if TYPE_CHECKING:
    from repro.store.backend import StoreBackend

__all__ = [
    "ENGINES",
    "DEFAULT_BLOCK_SIZE",
    "point_tasks",
    "task_keys",
    "assign_blocks",
    "execute_block",
    "replicate",
    "simulate_pb",
    "sweep_grid",
]

#: Accepted forms of the ``store=`` argument: an opened store (a
#: ``DiskStore`` or a read-through one), a directory path, or ``None``
#: (no caching).
StoreLike = Union["StoreBackend", str, "os.PathLike[str]", None]

#: Accepted forms of the ``manifest_dir=`` argument.
PathLike = Union[str, "os.PathLike[str]", None]

#: Engine names a task may carry: the vectorized slot-stepper and the
#: discrete-event object engine.
ENGINES: tuple[str, ...] = ("vector", "des")

#: Most vector replications one block advances.  Matches the paper's
#: ~30 runs per grid point, so a whole point usually advances as one
#: stacked update.
DEFAULT_BLOCK_SIZE = 32


def point_tasks(
    policy: RelayPolicy,
    config: SimulationConfig,
    seed: SeedLike,
    replications: int,
    *,
    engine: str = "vector",
    alignment: str = "phase",
) -> list[tuple]:
    """The ``replications`` tasks of one ``(policy, config)`` point.

    A task is the tuple ``(policy, config, seed, engine, alignment,
    deployment)``: task ``i`` runs on the ``i``-th child spawned from
    ``seed`` and samples its own deployment.  Every entry point plans a
    point here, so one point and seed has one set of store keys.
    """
    return [
        (policy, config, child, engine, alignment, None)
        for child in as_seed_sequence(seed).spawn(replications)
    ]


def task_keys(tasks: Sequence[tuple]) -> list[str]:
    """The store key of each task (:func:`repro.store.keys.task_key`).

    A task that carries a pre-sampled deployment is keyed as a
    common-random-numbers task.
    """
    from repro.store.keys import task_key

    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h = begin("store.keys", "store") if begin is not None else None
    keys = [
        task_key(pol, cfg, seed, eng, align, reuse_deployment=dep is not None)
        for pol, cfg, seed, eng, align, dep in tasks
    ]
    if h is not None:
        h.end(keys=len(keys))
    return keys


def assign_blocks(tasks: Sequence[tuple]) -> list[int]:
    """Block id per task: the replication blocks a task list runs in.

    A block is a run of consecutive vector tasks that share policy,
    config and deployment kind (sampled or pre-built), at most
    :data:`DEFAULT_BLOCK_SIZE` long; each DES task is a block of its
    own.  Results do not depend on blocking.
    """
    block_of: list[int] = []
    bid = -1
    size = 0
    prev: tuple | None = None
    for policy, config, _, engine, _, deployment in tasks:
        family = (policy, config, deployment is None) if engine == "vector" else None
        # Tuple equality tests identity first: O(1) on shared objects.
        if family is None or family != prev or size == DEFAULT_BLOCK_SIZE:
            bid += 1
            size = 0
        prev = family
        block_of.append(bid)
        size += 1
    return block_of


def execute_block(tasks: Sequence[tuple]) -> list[RunResult]:
    """Worker entry point: run one replication block (top-level, pickles).

    A vector block shares policy and config (see :func:`assign_blocks`),
    the shape :func:`~repro.sim.engine.run_broadcast_batch` consumes.
    The DES has no block form, so its tasks run one after another.
    Either way the block reports one ``runner.block`` span with ``reps``.
    """
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h = begin("runner.block", "runner") if begin is not None else None
    policy, config, _, engine, _, deployment = tasks[0]
    if engine == "vector":
        from repro.sim.engine import run_broadcast_batch

        results = run_broadcast_batch(
            policy,
            config,
            [task[2] for task in tasks],
            deployments=None if deployment is None else [task[5] for task in tasks],
        )
    else:
        from repro.sim.desimpl import DesBroadcastSimulation

        results = [
            DesBroadcastSimulation(pol, cfg, s, alignment=align, deployment=dep).run()
            for pol, cfg, s, _, align, dep in tasks
        ]
    if h is not None:
        h.end(reps=len(tasks))
    return results


def _open_store(store: StoreLike) -> "StoreBackend | None":
    """Normalize the ``store=`` argument (lazy import keeps cold start lean).

    A path opens as whatever layout its marker declares; any other
    value is already a backend and passes through.
    """
    if isinstance(store, (str, os.PathLike)):
        from repro.store.backend import open_store

        return open_store(store)
    return store


def replicate(
    policy: RelayPolicy,
    config: SimulationConfig,
    replications: int,
    seed: SeedLike,
    *,
    engine: str = "vector",
    alignment: str = "phase",
    workers: int | None = None,
    progress: bool = False,
    manifest_dir: PathLike = None,
    store: StoreLike = None,
    resume: bool = False,
    retries: int = 1,
) -> list[RunResult]:
    """Run ``replications`` independent simulations of one scenario.

    Parameters
    ----------
    policy, config:
        What to simulate.
    replications:
        Number of independent runs (paper uses 30).
    seed:
        Root seed; each run gets an independent spawned child.
    engine:
        ``"vector"`` (fast slot-stepper) or ``"des"`` (object engine);
        see :data:`ENGINES`.
    alignment:
        Slot alignment mode, DES engine only (``"phase"``/``"jitter"``).
    workers:
        Process count for the scheduler's pool: ``None`` (default) uses
        every usable CPU (:func:`repro.utils.parallel.default_workers`),
        ``1`` runs in-process.  A pool task is one replication block
        (see :func:`assign_blocks`); fewer than 4 blocks, or a single
        usable CPU, run in-process anyway.  A pooled run is traced as
        whole as a serial one, but its blocks reach the sinks in
        completion order (see :mod:`repro.store.scheduler`).
    progress:
        If true, print throttled progress/ETA lines to stderr via
        :class:`repro.obs.progress.SweepProgress`.
    manifest_dir:
        If given (a path), write a provenance manifest (seed entropy,
        config, git SHA, environment, timings) to
        ``manifest_dir/manifest.json`` after the runs complete.
    store:
        A store (a :class:`repro.store.DiskStore` or a
        :class:`repro.serve.ReadThroughStore`) or a store directory
        path: serve cached replications, persist fresh ones.  Results
        are bit-identical with the store on, off, or warm.
    resume:
        With ``store``: append to this call's existing completion
        journal instead of starting a fresh one.
    retries:
        Extra execution rounds for tasks that raised before a
        structured :class:`~repro.errors.SchedulerError` surfaces them.

    Returns
    -------
    list[RunResult] in replication order.
    """
    from repro.store.scheduler import run_tasks

    check_positive_int("replications", replications)
    check_in("engine", engine, ENGINES)
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h = begin("runner.replicate", "runner") if begin is not None else None
    root = as_seed_sequence(seed)
    started = obs_provenance.start_clock() if manifest_dir is not None else None
    tasks = point_tasks(
        policy, config, root, replications, engine=engine, alignment=alignment
    )
    disk_store = _open_store(store)
    prog = obs_progress.SweepProgress(len(tasks), "replicate") if progress else None
    results = run_tasks(
        tasks,
        task_keys(tasks) if disk_store is not None else None,
        store=disk_store,
        resume=resume,
        workers=workers,
        retries=retries,
        progress=prog.update if prog is not None else None,
        block_of=assign_blocks(tasks),
    )
    if manifest_dir is not None:
        obs_provenance.write_manifest(
            manifest_dir,
            "replicate",
            config=config,
            seed=root,
            params={
                "replications": replications,
                "engine": engine,
                "alignment": alignment,
                "policy": repr(policy),
                "store": None if disk_store is None else str(disk_store.root),
            },
            started=started,
        )
    if h is not None:
        h.end(replications=replications)
    return results


def simulate_pb(
    config: SimulationConfig,
    p: float,
    replications: int = 30,
    seed: SeedLike = None,
    *,
    engine: str = "vector",
    alignment: str = "phase",
    workers: int | None = None,
    progress: bool = False,
    manifest_dir: PathLike = None,
    store: StoreLike = None,
    resume: bool = False,
) -> list[RunResult]:
    """Replicated probability-based broadcast — the paper's Sec. 5 unit.

    Equivalent to ``replicate(ProbabilisticRelay(p), config, ...)``;
    every keyword is forwarded verbatim.
    """
    return replicate(
        ProbabilisticRelay(p),
        config,
        replications,
        seed,
        engine=engine,
        alignment=alignment,
        workers=workers,
        progress=progress,
        manifest_dir=manifest_dir,
        store=store,
        resume=resume,
    )


def sweep_grid(
    config: SimulationConfig | Callable[[float], SimulationConfig],
    rho_grid: Sequence[float],
    p_grid: Sequence[float],
    replications: int,
    seed: SeedLike,
    *,
    policy_factory: Callable[[float], RelayPolicy] = ProbabilisticRelay,
    engine: str = "vector",
    alignment: str = "phase",
    workers: int | None = None,
    reuse_deployments: bool = False,
    point_seed: Callable[[float, int], SeedLike] | None = None,
    progress: bool = False,
    manifest_dir: PathLike = None,
    store: StoreLike = None,
    resume: bool = False,
    retries: int = 1,
) -> dict[tuple[float, float], list[RunResult]]:
    """Replicated simulations over a full ``(rho, p)`` grid, one pool.

    Every ``(rho, p, replication)`` task of the grid goes through one
    :func:`repro.store.scheduler.run_tasks` call, so one process pool
    serves the whole sweep instead of paying executor startup once per
    grid point.  Blocks never span grid points (each point has its own
    policy and config), so a point of ``replications`` runs forms
    ``ceil(replications / DEFAULT_BLOCK_SIZE)`` pool tasks.

    Parameters
    ----------
    config:
        Either a :class:`SimulationConfig` (re-densified per ``rho``
        via :meth:`SimulationConfig.with_rho`) or a callable
        ``rho -> SimulationConfig``.
    rho_grid, p_grid:
        Densities and relay probabilities to cross.
    replications:
        Independent runs per grid point.
    seed:
        Root seed for the sweep.
    policy_factory:
        Builds the relay policy for each ``p`` (default
        :class:`~repro.protocols.pbcast.ProbabilisticRelay`).
    engine, alignment, workers:
        As in :func:`replicate`.
    reuse_deployments:
        Common-random-numbers mode: sample one deployment per
        ``(rho, replication)`` cell and reuse it — together with the
        cell's protocol seed — across every ``p``.  Differences between
        probabilities are then measured on identical topologies, which
        sharpens comparisons at the cost of independence across ``p``.
        Incompatible with ``point_seed``.
    point_seed:
        Optional ``(rho, p_index) -> seed`` hook giving each grid point
        the root seed :func:`replicate` would have received, so a
        pooled sweep reproduces per-point ``replicate``/``simulate_pb``
        calls run-for-run.  Default: children spawned from ``seed`` in
        grid order.
    progress:
        If true, print throttled progress/ETA lines (rate, collisions
        per run, mean reachability) to stderr while the sweep runs.
    manifest_dir:
        If given (a path), write a provenance manifest for the sweep to
        ``manifest_dir/manifest.json`` (see :func:`replicate`).
    store:
        A store backend or store directory path, as in :func:`replicate`.
        Cache-hit tasks are served without computing; fresh completions
        are persisted and journaled *as they finish*, which makes the
        sweep crash-safe: killed at task 7,000 of 10,000, the next
        invocation with ``resume=True`` computes only the missing
        3,000.  Because keys are content-addressed, a pooled sweep with
        ``point_seed`` also shares entries with the per-point
        ``replicate``/``simulate_pb`` calls it reproduces.
    resume:
        With ``store``: append to this sweep's existing journal (the
        crash-recovery path) instead of starting a fresh one.
        Correctness never depends on the flag — hits come from the
        store either way, and a journaled task whose entry was evicted
        or corrupted is recomputed.
    retries:
        Extra execution rounds for tasks that raised before a
        structured :class:`~repro.errors.SchedulerError` surfaces them
        (with ``store``, completed siblings stay persisted).

    Returns
    -------
    dict mapping ``(float(rho), float(p))`` to the point's
    ``list[RunResult]`` in replication order.
    """
    from repro.store.scheduler import run_tasks

    check_positive_int("replications", replications)
    check_in("engine", engine, ENGINES)
    rhos = [float(r) for r in rho_grid]
    ps = [float(p) for p in p_grid]
    if not rhos or not ps:
        raise ConfigurationError("rho_grid and p_grid must be non-empty")
    if reuse_deployments and point_seed is not None:
        raise ConfigurationError("point_seed is incompatible with reuse_deployments")
    started = obs_provenance.start_clock() if manifest_dir is not None else None
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h = begin("sweep.grid", "runner") if begin is not None else None

    def _config_at(rho: float) -> SimulationConfig:
        return config(rho) if callable(config) else config.with_rho(rho)

    configs = [_config_at(rho) for rho in rhos]
    policies = [policy_factory(p) for p in ps]
    root = as_seed_sequence(seed)
    disk_store = _open_store(store)
    h_build = begin("sweep.build", "runner") if begin is not None else None
    tasks: list[tuple] = []
    if reuse_deployments:
        rho_roots = root.spawn(len(rhos))
        for cfg, rho_root in zip(configs, rho_roots, strict=True):
            cells = []
            for cell in rho_root.spawn(replications):
                # Separate streams for the deployment draw and the
                # protocol decisions, so reusing the run seed across p
                # does not correlate positions with relay choices.
                dep_seed, run_seed = cell.spawn(2)
                deployment = DiskDeployment.sample(
                    rho=cfg.rho,
                    n_rings=cfg.n_rings,
                    radius=cfg.radius,
                    rng=np.random.default_rng(dep_seed),
                    population=cfg.population,
                )
                cells.append((run_seed, deployment))
            for policy in policies:
                for run_seed, deployment in cells:
                    tasks.append(
                        (policy, cfg, run_seed, engine, alignment, deployment)
                    )
    else:
        point_roots = None if point_seed is not None else root.spawn(len(rhos) * len(ps))
        for ri, cfg in enumerate(configs):
            for pi, policy in enumerate(policies):
                if point_seed is not None:
                    point_root = point_seed(rhos[ri], pi)
                else:
                    point_root = point_roots[ri * len(ps) + pi]
                tasks += point_tasks(
                    policy,
                    cfg,
                    point_root,
                    replications,
                    engine=engine,
                    alignment=alignment,
                )
    if h_build is not None:
        h_build.end(tasks=len(tasks))

    prog = obs_progress.SweepProgress(len(tasks), "sweep") if progress else None
    results = run_tasks(
        tasks,
        task_keys(tasks) if disk_store is not None else None,
        store=disk_store,
        resume=resume,
        workers=workers,
        retries=retries,
        progress=prog.update if prog is not None else None,
        block_of=assign_blocks(tasks),
    )

    grid: dict[tuple[float, float], list[RunResult]] = {}
    it = iter(results)
    for rho in rhos:
        for p in ps:
            grid[(rho, p)] = [next(it) for _ in range(replications)]
    if manifest_dir is not None:
        obs_provenance.write_manifest(
            manifest_dir,
            "sweep_grid",
            config=None if callable(config) else config,
            seed=root,
            params={
                "rho_grid": rhos,
                "p_grid": ps,
                "replications": replications,
                "engine": engine,
                "alignment": alignment,
                "reuse_deployments": reuse_deployments,
                "n_runs": len(tasks),
                "store": None if disk_store is None else str(disk_store.root),
                "resume": resume,
            },
            started=started,
        )
    if h is not None:
        h.end(tasks=len(tasks), points=len(rhos) * len(ps))
    return grid
