"""Monte-Carlo replication of broadcast simulations.

The paper's simulation figures average 30 independent runs per grid
point (Sec. 5).  :func:`replicate` spawns independent seed-sequence
children for each run — reproducible, order-independent — and executes
them serially or across a process pool via
:func:`repro.utils.parallel.parallel_map`.  :func:`sweep_grid` is the
grid-scale entry point: it flattens an entire ``(rho, p)`` sweep into
one task list so a single process pool serves every grid point (instead
of paying pool startup per point), and can optionally reuse one sampled
deployment per ``(rho, replication)`` cell across all probabilities
(common random numbers).

Both entry points accept ``store=`` — any store backend, or a path —
to run through the content-addressed result store: cached tasks are
served without computing, fresh completions are persisted and journaled
as they land (so a killed sweep resumes where it died via
``resume=True``), and results are bit-identical to a storeless run.

Vector-engine work runs in replication blocks through
:func:`~repro.sim.engine.run_broadcast_batch`, traced or not; a task
dispatched on its own is a block of one.  DES tasks run one by one.
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
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.utils.validation import check_in, check_positive_int

if TYPE_CHECKING:
    from repro.store.backend import StoreBackend

__all__ = ["replicate", "simulate_pb", "sweep_grid"]

#: Accepted forms of the ``store=`` argument: an opened store (a
#: ``DiskStore`` or a read-through one), a directory path, or ``None``
#: (no caching).
StoreLike = Union["StoreBackend", str, "os.PathLike[str]", None]

#: Accepted forms of the ``manifest_dir=`` argument.
PathLike = Union[str, "os.PathLike[str]", None]

#: Replications dispatched per pool task for ``engine="vector"`` when
#: the caller left ``block_size=None``.  Matches the paper's ~30 runs
#: per grid point, so a whole point usually advances as one stacked
#: update.
DEFAULT_BLOCK_SIZE = 32


def _execute(task: tuple) -> RunResult:
    """Worker entry point (top-level so it pickles)."""
    policy, config, child_seed, engine, alignment, deployment = task
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h = begin("runner.task", "runner") if begin is not None else None
    if engine == "vector":
        from repro.sim.engine import run_broadcast

        result = run_broadcast(policy, config, child_seed, deployment=deployment)
    else:
        from repro.sim.desimpl import DesBroadcastSimulation

        result = DesBroadcastSimulation(
            policy, config, child_seed, alignment=alignment, deployment=deployment
        ).run()
    if h is not None:
        h.end()
    return result


def _execute_block(tasks: Sequence[tuple]) -> list[RunResult]:
    """Worker entry point for one replication block (top-level, pickles).

    Every task in a block shares ``(policy, config, engine, alignment)``
    by construction (see :func:`_block_assignment`); only seeds and
    optional pre-built deployments vary, which is exactly the shape
    :func:`~repro.sim.engine.run_broadcast_batch` consumes.  The DES
    engine has no block form, so a DES block runs its tasks one by one.
    """
    from repro.sim.engine import run_broadcast_batch

    policy, config, _, engine, _, _ = tasks[0]
    if engine != "vector":
        return [_execute(task) for task in tasks]
    seeds = [t[2] for t in tasks]
    deployments = [t[5] for t in tasks]
    deps = deployments if deployments[0] is not None else None
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h = begin("runner.block", "runner") if begin is not None else None
    results = run_broadcast_batch(policy, config, seeds, deployments=deps)
    if h is not None:
        h.end(reps=len(tasks))
    return results


def _resolve_block_size(block_size: int | None, engine: str) -> int:
    """Effective replication-block size; ``0`` dispatches task by task.

    Blocks only form for ``engine="vector"``.  Task-by-task dispatch
    runs each vector task as a block of one, so results (and traced
    event streams) are identical for every block size.
    """
    if engine != "vector":
        return 0
    if block_size is None:
        return DEFAULT_BLOCK_SIZE
    if block_size < 0:
        raise ConfigurationError(f"block_size must be >= 0, got {block_size}")
    return 0 if block_size <= 1 else block_size


def _block_assignment(groups: Sequence[int], block_size: int) -> list[int]:
    """Block id per task: consecutive same-group tasks, ``block_size`` max.

    ``groups[i]`` identifies the ``(policy, config)`` family of task
    ``i`` (e.g. the grid-point index); only consecutive tasks of one
    family may share a block, which is what lets the block worker pull
    ``policy``/``config`` from its first member.
    """
    block_of: list[int] = []
    bid = -1
    count = block_size
    prev: int | None = None
    for g in groups:
        if g != prev or count >= block_size:
            bid += 1
            count = 0
            prev = g
        block_of.append(bid)
        count += 1
    return block_of


def _open_store(store: StoreLike) -> "StoreBackend | None":
    """Normalize the ``store=`` argument (lazy import keeps cold start lean).

    A path opens as whatever layout its marker declares; any other
    value is already a backend and passes through.
    """
    if isinstance(store, (str, os.PathLike)):
        from repro.store.backend import open_store

        return open_store(store)
    return store


def _run_task_list(
    tasks: list[tuple],
    keys: list[str] | None,
    store: "StoreBackend | None",
    resume: bool,
    workers: int | None,
    retries: int,
    prog: "obs_progress.SweepProgress | None",
    block_of: list[int] | None = None,
) -> list[RunResult]:
    """Dispatch a task list through the scheduler or plain parallel_map.

    ``block_of`` (from :func:`_block_assignment`) switches on
    replication-block dispatch: each block becomes one pool task running
    :func:`~repro.sim.engine.run_broadcast_batch`.  Results, store
    entries, and progress lines stay per run either way.
    """
    if store is not None:
        from repro.store.scheduler import run_tasks

        assert keys is not None
        return run_tasks(
            _execute,
            tasks,
            keys,
            store=store,
            resume=resume,
            workers=workers,
            retries=retries,
            progress=prog.update if prog is not None else None,
            batch_execute=_execute_block if block_of is not None else None,
            block_of=block_of,
        )
    if block_of is not None:
        blocks: list[list[int]] = []
        prev_bid: int | None = None
        for i, bid in enumerate(block_of):
            if not blocks or bid != prev_bid:
                blocks.append([])
                prev_bid = bid
            blocks[-1].append(i)
        block_results = parallel_map(
            _execute_block,
            [[tasks[i] for i in blk] for blk in blocks],
            workers=workers,
            progress=prog.update_blocks if prog is not None else None,
        )
        out: list[RunResult | None] = [None] * len(tasks)
        for blk, res in zip(blocks, block_results, strict=True):
            for i, r in zip(blk, res, strict=True):
                out[i] = r
        return [r for r in out if r is not None]
    return parallel_map(
        _execute,
        tasks,
        workers=workers,
        progress=prog.update if prog is not None else None,
    )


def replicate(
    policy: RelayPolicy,
    config: SimulationConfig,
    replications: int,
    seed: SeedLike,
    *,
    engine: str = "vector",
    alignment: str = "phase",
    workers: int | None = 1,
    progress: bool = False,
    manifest_dir: PathLike = None,
    store: StoreLike = None,
    resume: bool = False,
    retries: int = 1,
    block_size: int | None = None,
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
        ``"vector"`` (fast slot-stepper) or ``"des"`` (object engine).
    alignment:
        Slot alignment mode, DES engine only (``"phase"``/``"jitter"``).
    workers:
        Process count for :func:`repro.utils.parallel.parallel_map`;
        ``1`` (default) runs serially, ``None`` uses all cores but one.
        With batching, a pool task is one replication *block*.
    block_size:
        Replications advanced per
        :func:`~repro.sim.engine.run_broadcast_batch` block (vector
        engine only).  ``None`` (default) picks
        :data:`DEFAULT_BLOCK_SIZE`; ``0`` or ``1`` runs one replication
        per block.  Traced runs use blocks too: each replication still
        reports its own event stream, in replication order.  Results
        are bit-identical for every setting; only wall-clock changes.
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
        With ``store``: extra execution rounds for tasks that raised
        before a structured
        :class:`~repro.errors.SchedulerError` surfaces them.

    Returns
    -------
    list[RunResult] in replication order.
    """
    check_positive_int("replications", replications)
    check_in("engine", engine, ("vector", "des"))
    prof = obs_spans.profiler()
    begin = prof.begin if prof.enabled else None
    h = begin("runner.replicate", "runner") if begin is not None else None
    root = as_seed_sequence(seed)
    started = obs_provenance.start_clock() if manifest_dir is not None else None
    children = root.spawn(replications)
    tasks = [(policy, config, child, engine, alignment, None) for child in children]
    disk_store = _open_store(store)
    task_keys: list[str] | None = None
    if disk_store is not None:
        from repro.store.keys import task_key

        h_keys = begin("store.keys", "store") if begin is not None else None
        task_keys = [
            task_key(policy, config, child, engine, alignment) for child in children
        ]
        if h_keys is not None:
            h_keys.end(keys=len(task_keys))
    resolved_block = _resolve_block_size(block_size, engine)
    block_of = (
        _block_assignment([0] * len(tasks), resolved_block)
        if resolved_block > 1
        else None
    )
    prog = obs_progress.SweepProgress(len(tasks), "replicate") if progress else None
    results = _run_task_list(
        tasks, task_keys, disk_store, resume, workers, retries, prog, block_of
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
    workers: int | None = 1,
    progress: bool = False,
    manifest_dir: PathLike = None,
    store: StoreLike = None,
    resume: bool = False,
    block_size: int | None = None,
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
        block_size=block_size,
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
    workers: int | None = 1,
    reuse_deployments: bool = False,
    point_seed: Callable[[float, int], SeedLike] | None = None,
    progress: bool = False,
    manifest_dir: PathLike = None,
    store: StoreLike = None,
    resume: bool = False,
    retries: int = 1,
    block_size: int | None = None,
) -> dict[tuple[float, float], list[RunResult]]:
    """Replicated simulations over a full ``(rho, p)`` grid, one pool.

    Every ``(rho, p, replication)`` task of the grid goes through a
    single :func:`repro.utils.parallel.parallel_map` call, so one
    process pool serves the whole sweep instead of paying executor
    startup once per grid point.

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
        With ``store``: extra execution rounds for tasks that raised
        before a structured :class:`~repro.errors.SchedulerError`
        surfaces them (completed siblings stay persisted).
    block_size:
        As in :func:`replicate`: replications advanced per engine
        block.  Blocks never span grid points (each point has its own
        policy and config), so a point's ``replications`` runs form
        ``ceil(replications / block_size)`` pool tasks.  Store keys and
        payloads stay per run, bit-identical for every block size.

    Returns
    -------
    dict mapping ``(float(rho), float(p))`` to the point's
    ``list[RunResult]`` in replication order.
    """
    check_positive_int("replications", replications)
    check_in("engine", engine, ("vector", "des"))
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
    tasks = []
    # Grid-point index per task: replication blocks may only form
    # within one (rho, p) point, where policy and config are shared.
    groups: list[int] = []

    if reuse_deployments:
        rho_roots = root.spawn(len(rhos))
        for ri, (cfg, rho_root) in enumerate(zip(configs, rho_roots, strict=True)):
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
            for pi, policy in enumerate(policies):
                for run_seed, deployment in cells:
                    tasks.append(
                        (policy, cfg, run_seed, engine, alignment, deployment)
                    )
                    groups.append(ri * len(ps) + pi)
    else:
        point_roots = None if point_seed is not None else root.spawn(len(rhos) * len(ps))
        for ri, cfg in enumerate(configs):
            for pi, policy in enumerate(policies):
                if point_seed is not None:
                    point_root = as_seed_sequence(point_seed(rhos[ri], pi))
                else:
                    point_root = point_roots[ri * len(ps) + pi]
                for child in point_root.spawn(replications):
                    tasks.append((policy, cfg, child, engine, alignment, None))
                    groups.append(ri * len(ps) + pi)
    if h_build is not None:
        h_build.end(tasks=len(tasks))

    task_keys: list[str] | None = None
    if disk_store is not None:
        from repro.store.keys import task_key

        h_keys = begin("store.keys", "store") if begin is not None else None
        task_keys = [
            task_key(
                t[0], t[1], t[2], engine, alignment, reuse_deployment=t[5] is not None
            )
            for t in tasks
        ]
        if h_keys is not None:
            h_keys.end(keys=len(task_keys))

    resolved_block = _resolve_block_size(block_size, engine)
    block_of = (
        _block_assignment(groups, resolved_block) if resolved_block > 1 else None
    )
    prog = obs_progress.SweepProgress(len(tasks), "sweep") if progress else None
    results = _run_task_list(
        tasks, task_keys, disk_store, resume, workers, retries, prog, block_of
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
