"""Concurrent writers on one store: racing processes, threads and puts."""

import multiprocessing
import threading

from repro.analysis.config import AnalysisConfig
from repro.protocols.pbcast import ProbabilisticRelay
from repro.serve import ReadThroughStore
from repro.sim.config import SimulationConfig
from repro.sim.runner import execute_block, point_tasks, task_keys
from repro.store import DiskStore, open_store, run_tasks

CFG = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))


def _make_tasks(p: float, seed: int, n: int):
    tasks = point_tasks(ProbabilisticRelay(p), CFG, seed, n)
    return tasks, task_keys(tasks)


def _writer(root, specs, barrier):
    store = DiskStore(root)
    tasks, keys = [], []
    for p, seed, n in specs:
        t, k = _make_tasks(p, seed, n)
        tasks.extend(t)
        keys.extend(k)
    barrier.wait()  # maximise interleaving: both writers start together
    run_tasks(tasks, keys, store=store)
    store.flush_index()


def _putter(root, key, results, barrier, n):
    store = open_store(root)
    barrier.wait()
    for _ in range(n):
        store.put(key, results)


class TestConcurrentWriters:
    def test_two_schedulers_one_store_no_lost_entries(self, tmp_path):
        """Acceptance test: two interleaved writers, nothing lost or torn."""
        root = tmp_path / "s"
        DiskStore(root)  # write the marker before forking
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

    def test_same_tasks_from_both_writers_bit_identical(self, tmp_path):
        """Two writers race on IDENTICAL keys; last write is still valid."""
        root = tmp_path / "s"
        DiskStore(root)
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
            (fresh,) = execute_block([task])
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
        results = execute_block(tasks[:1])
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


class TestExecutorThreads:
    def test_four_threads_one_read_through_store(self, tmp_path):
        """Serve's executor threads: run_tasks from four threads at once.

        Two threads share one task list (racing puts of the same keys);
        the other two have their own.  The memory tier holds 4 of the 18
        keys, so gets keep falling through to disk while puts land.
        """
        store = ReadThroughStore(DiskStore(tmp_path / "s"), max_entries=4)
        shared = _make_tasks(0.5, 7, 6)
        task_lists = [shared, shared, _make_tasks(0.3, 11, 6), _make_tasks(0.7, 13, 6)]
        barrier = threading.Barrier(len(task_lists), timeout=60)
        errors = []

        def work(tasks, keys):
            try:
                barrier.wait()
                for _ in range(20):
                    run_tasks(tasks, keys, store=store)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=task_list) for task_list in task_lists
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        all_keys = {key for _, keys in task_lists for key in keys}
        assert len(all_keys) == 18
        for key in all_keys:
            assert key in store.backend
        assert store.verify() == []
        assert list(store.objects_dir.rglob("*.tmp")) == []
