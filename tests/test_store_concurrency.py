"""Concurrent writers on one store: flock, crashes, recovery, racing puts."""

import multiprocessing
import os

import pytest

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import _execute
from repro.store import (
    DiskStore,
    FileLock,
    ShardedBackend,
    open_store,
    run_tasks,
    task_key,
)
from repro.utils.rng import as_seed_sequence

fcntl = pytest.importorskip("fcntl")

CFG = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))


def _make_tasks(p: float, seed: int, n: int):
    policy = ProbabilisticRelay(p)
    children = as_seed_sequence(seed).spawn(n)
    tasks = [(policy, CFG, child, "vector", "phase", None) for child in children]
    keys = [task_key(policy, CFG, child, "vector", "phase") for child in children]
    return tasks, keys


def _writer(root, specs, barrier):
    store = ShardedBackend(root)
    tasks, keys = [], []
    for p, seed, n in specs:
        t, k = _make_tasks(p, seed, n)
        tasks.extend(t)
        keys.extend(k)
    barrier.wait()  # maximise interleaving: both writers start together
    run_tasks(_execute, tasks, keys, store=store)
    store.flush_index()


def _putter(root, key, results, barrier, n):
    store = open_store(root)
    barrier.wait()
    for _ in range(n):
        store.put(key, results)


def _lock_holder(path, acquired, release):
    lock = FileLock(path)
    with lock:
        acquired.set()
        release.wait(timeout=30)


class TestConcurrentWriters:
    def test_two_schedulers_one_store_no_lost_entries(self, tmp_path):
        """Acceptance test: two interleaved writers, nothing lost or torn."""
        root = tmp_path / "s"
        ShardedBackend(root)  # write the marker before forking
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        # Overlapping work: both write (0.5, seed 7); each adds its own.
        specs = [
            [(0.5, 7, 4), (0.3, 11, 4)],
            [(0.5, 7, 4), (0.7, 13, 4)],
        ]
        procs = [
            ctx.Process(target=_writer, args=(root, spec, barrier))
            for spec in specs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = open_store(root)
        _, keys_shared = _make_tasks(0.5, 7, 4)
        _, keys_a = _make_tasks(0.3, 11, 4)
        _, keys_b = _make_tasks(0.7, 13, 4)
        for key in keys_shared + keys_a + keys_b:
            assert key in store
            assert store.get(key)  # unpacks → checksums verified
        assert store.verify() == []
        # Shard journals recorded every surviving entry.
        journalled = set()
        for journal in store._journals.values():
            for entry in journal.entries():
                journalled.add(entry["key"])
        assert set(keys_shared + keys_a + keys_b) <= journalled

    def test_same_tasks_from_both_writers_bit_identical(self, tmp_path):
        """Two writers race on IDENTICAL keys; last write is still valid."""
        root = tmp_path / "s"
        ShardedBackend(root)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_writer, args=(root, [(0.5, 7, 6)], barrier))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = open_store(root)
        tasks, keys = _make_tasks(0.5, 7, 6)
        for task, key in zip(tasks, keys):
            (stored,) = store.get(key)
            fresh = _execute(task)
            assert stored.seed_entropy == fresh.seed_entropy
            assert (
                stored.new_informed_by_slot.tolist()
                == fresh.new_informed_by_slot.tolist()
            )
        assert store.verify() == []


class TestClassicLayoutRacingPuts:
    def test_two_writers_put_one_key(self, tmp_path):
        """The unlocked classic layout: racing puts of one key both succeed."""
        root = tmp_path / "s"
        assert isinstance(open_store(root), DiskStore)
        tasks, keys = _make_tasks(0.5, 7, 1)
        results = [_execute(tasks[0])]
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_putter, args=(root, keys[0], results, barrier, 300))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = open_store(root)
        assert list(store.keys()) == keys
        assert store.verify() == []
        assert list(store.objects_dir.rglob("*.tmp")) == []


class TestFlockAcrossProcesses:
    def test_lock_excludes_other_process(self, tmp_path):
        path = tmp_path / ".lock"
        ctx = multiprocessing.get_context("fork")
        acquired = ctx.Event()
        release = ctx.Event()
        proc = ctx.Process(target=_lock_holder, args=(path, acquired, release))
        proc.start()
        try:
            assert acquired.wait(timeout=30)
            fd = os.open(path, os.O_RDWR)
            try:
                with pytest.raises(BlockingIOError):
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
        finally:
            release.set()
            proc.join(timeout=30)
        assert proc.exitcode == 0
        # Released now: acquiring from this process succeeds.
        with FileLock(path):
            pass


class TestCrashRecovery:
    def test_torn_journal_and_stale_tmp_recoverable(self, tmp_path):
        """A writer killed mid-append leaves a torn line + tmp litter."""
        store = ShardedBackend(tmp_path / "s")
        tasks, keys = _make_tasks(0.5, 7, 4)
        for task, key in zip(tasks, keys):
            store.put(key, [_execute(task)])
        store.flush_index()
        # Crash artifacts: torn final journal line, orphaned tmp object.
        seg = store.shard_journal(keys[0]).segments()[-1]
        with seg.open("a") as fh:
            fh.write('{"op": "put", "key": "dead')  # no newline — torn
        tmp = store.path_for(keys[0]).with_suffix(".json.tmp")
        tmp.write_text("partial write")
        reopened = open_store(tmp_path / "s")
        assert sorted(reopened.keys()) == sorted(keys)
        assert reopened.verify() == []
        survivors = [
            e["key"] for e in reopened.shard_journal(keys[0]).entries()
        ]
        assert "dead" not in "".join(survivors)
        for key in keys:
            assert reopened.get(key)

    def test_index_rebuild_after_crash(self, tmp_path):
        """Losing every shard index is recoverable from the objects."""
        store = ShardedBackend(tmp_path / "s")
        tasks, keys = _make_tasks(0.5, 7, 4)
        for task, key in zip(tasks, keys):
            store.put(key, [_execute(task)])
        store.flush_index()
        for shard in store.shards.values():
            index = shard.root / "index.json"
            if index.exists():
                index.unlink()
        reopened = open_store(tmp_path / "s")
        reopened.rebuild_index()
        assert sorted(reopened.keys()) == sorted(keys)
