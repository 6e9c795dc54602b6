"""run_tasks: hit/miss logic, blocks, crash safety, retries, errors.

The scheduler runs each block through ``repro.sim.runner.execute_block``,
looked up when the block runs; these tests substitute a counting fake
there, and the tasks are plain indices into canned results.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import SchedulerError
from repro.obs import capture_spans
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim import runner
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.store import DiskStore, run_tasks, sweep_key


@pytest.fixture
def results():
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))
    return replicate(ProbabilisticRelay(0.5), cfg, 4, seed=7)


@pytest.fixture
def store(tmp_path):
    return DiskStore(tmp_path / "store")


TASKS = [0, 1, 2, 3]
KEYS = [hashlib.sha256(f"task-{i}".encode()).hexdigest() for i in TASKS]


class CountingExecute:
    """Block worker fake: returns canned results, counts calls.

    ``calls`` lists every task run, ``blocks`` every block.  A block
    holding a failing task fails as a whole, as an engine block does.
    """

    def __init__(self, results, fail_indices=(), fail_times=0):
        self.results = results
        self.calls = []
        self.blocks = []
        self.fail_indices = set(fail_indices)
        self.fail_times = fail_times
        self.failed = {}

    def __call__(self, tasks):
        self.blocks.append(list(tasks))
        return [self.run(task) for task in tasks]

    def run(self, task):
        self.calls.append(task)
        if task in self.fail_indices:
            n = self.failed.get(task, 0)
            if self.fail_times < 0 or n < self.fail_times:
                self.failed[task] = n + 1
                raise RuntimeError(f"task {task} exploded")
        return self.results[task]


@pytest.fixture
def use(monkeypatch):
    """Install a fake block worker where the scheduler looks it up."""

    def install(execute):
        monkeypatch.setattr(runner, "execute_block", execute)
        return execute

    return install


def assert_same(a, b):
    np.testing.assert_array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
    np.testing.assert_array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
    assert a.seed_entropy == b.seed_entropy


class TestColdAndWarm:
    def test_cold_run_executes_and_persists_everything(self, store, results, use):
        ex = use(CountingExecute(results))
        out = run_tasks(TASKS, KEYS, store=store)
        assert ex.calls == TASKS
        for a, b in zip(results, out, strict=True):
            assert_same(a, b)
        assert all(k in store for k in KEYS)
        journal = store.journals_dir / f"{sweep_key(KEYS)}.jsonl"
        assert journal.exists()
        assert len(journal.read_text().splitlines()) == 1 + len(TASKS)

    def test_warm_run_executes_nothing(self, store, results, use):
        use(CountingExecute(results))
        run_tasks(TASKS, KEYS, store=store)
        ex = use(CountingExecute(results))
        out = run_tasks(TASKS, KEYS, store=store)
        assert ex.calls == []
        for a, b in zip(results, out, strict=True):
            assert_same(a, b)

    def test_without_store_plain_execution(self, results, use):
        ex = use(CountingExecute(results))
        out = run_tasks(TASKS, store=None)
        assert ex.calls == TASKS and len(out) == 4

    def test_mismatched_lengths_rejected(self, store, results, use):
        use(CountingExecute(results))
        with pytest.raises(ValueError):
            run_tasks(TASKS, KEYS[:2], store=store)
        with pytest.raises(ValueError):
            run_tasks(TASKS, None, store=store)
        with pytest.raises(ValueError):
            run_tasks(TASKS, KEYS, store=store, block_of=[0, 0])

    def test_hit_miss_counters(self, store, results, use):
        use(CountingExecute(results))
        run_tasks(TASKS[:2], KEYS[:2], store=store)
        with capture_spans() as buf:
            run_tasks(TASKS, KEYS, store=store)
        (lookup,) = buf.named("store.lookup")
        assert lookup.counters["hits"] == 2
        assert lookup.counters["misses"] == 2
        assert len(buf.named("store.put")) == 2


class TestBlocks:
    def test_blocks_follow_block_ids(self, store, results, use):
        ex = use(CountingExecute(results))
        run_tasks(TASKS, KEYS, store=store, block_of=[0, 0, 1, 1])
        assert ex.blocks == [[0, 1], [2, 3]]

    def test_blocks_reform_over_misses(self, store, results, use):
        use(CountingExecute(results))
        run_tasks([1, 2], [KEYS[1], KEYS[2]], store=store)
        ex = use(CountingExecute(results))
        run_tasks(TASKS, KEYS, store=store, block_of=[0, 0, 0, 0])
        assert ex.blocks == [[0, 3]]

    def test_failed_block_retries_members_alone(self, store, results, use):
        ex = use(CountingExecute(results, fail_indices=(2,), fail_times=1))
        out = run_tasks(TASKS, KEYS, store=store, block_of=[0, 0, 0, 0], retries=1)
        assert ex.blocks == [[0, 1, 2, 3], [0], [1], [2], [3]]
        for a, b in zip(results, out, strict=True):
            assert_same(a, b)


class TestCorruption:
    def test_corrupt_entry_recomputed_not_served(self, store, results, use):
        use(CountingExecute(results))
        run_tasks(TASKS, KEYS, store=store)
        store.path_for(KEYS[1]).write_text("garbage")
        ex = use(CountingExecute(results))
        out = run_tasks(TASKS, KEYS, store=store)
        assert ex.calls == [1]  # only the corrupted entry recomputes
        for a, b in zip(results, out, strict=True):
            assert_same(a, b)
        assert store.verify() == []  # healthy again


class TestFailures:
    def test_transient_failure_retried(self, store, results, use):
        ex = use(CountingExecute(results, fail_indices=(2,), fail_times=1))
        out = run_tasks(TASKS, KEYS, store=store, retries=1)
        assert len(out) == 4
        assert_same(out[2], results[2])
        assert ex.calls.count(2) == 2

    def test_persistent_failure_raises_scheduler_error(self, store, results, use):
        use(CountingExecute(results, fail_indices=(2,), fail_times=-1))
        with pytest.raises(SchedulerError) as err:
            run_tasks(TASKS, KEYS, store=store, retries=1)
        (index, key, exc) = err.value.failures[0]
        assert index == 2 and key == KEYS[2]
        assert isinstance(exc, RuntimeError)
        assert "resume=True" in str(err.value)
        # Siblings are persisted despite the failure.
        assert all(k in store for i, k in enumerate(KEYS) if i != 2)
        assert KEYS[2] not in store

    def test_resume_after_failure_executes_only_the_failure(
        self, store, results, use
    ):
        use(CountingExecute(results, fail_indices=(2,), fail_times=-1))
        with pytest.raises(SchedulerError):
            run_tasks(TASKS, KEYS, store=store, retries=0)
        ex = use(CountingExecute(results))  # "fixed code"
        out = run_tasks(TASKS, KEYS, store=store, resume=True)
        assert ex.calls == [2]
        for a, b in zip(results, out, strict=True):
            assert_same(a, b)

    def test_failure_without_store_still_structured(self, results, use):
        use(CountingExecute(results, fail_indices=(0,), fail_times=-1))
        with pytest.raises(SchedulerError) as err:
            run_tasks(TASKS, store=None, retries=0)
        assert err.value.failures[0][:2] == (0, None)


class TestTraceEvents:
    def test_store_accesses_traced(self, store, results, use):
        from repro.obs import trace as obs_trace
        from repro.obs.events import StoreAccess

        use(CountingExecute(results))
        with obs_trace.capture() as buf:
            run_tasks(TASKS, KEYS, store=store)
        events = [e for e in buf.events if isinstance(e, StoreAccess)]
        assert {e.op for e in events} == {"miss", "put"}
        assert sum(e.op == "put" for e in events) == len(TASKS)
        with obs_trace.capture() as buf:
            run_tasks(TASKS, KEYS, store=store)
        hits = [e for e in buf.events if isinstance(e, StoreAccess)]
        assert all(e.op == "hit" for e in hits) and len(hits) == len(TASKS)


class TestProgress:
    def test_progress_counts_hits_and_completions(self, store, results, use):
        use(CountingExecute(results))
        run_tasks(TASKS[:2], KEYS[:2], store=store)
        seen = []
        run_tasks(
            TASKS,
            KEYS,
            store=store,
            progress=lambda done, total, chunk: seen.append((done, total)),
        )
        assert seen[0] == (2, 4)  # hits reported first
        assert seen[-1] == (4, 4)

    def test_progress_counts_runs_not_blocks(self, store, results, use):
        use(CountingExecute(results))
        seen = []
        run_tasks(
            TASKS,
            KEYS,
            store=store,
            block_of=[0, 0, 0, 1],
            progress=lambda done, total, chunk: seen.append((done, total, len(chunk))),
        )
        assert seen == [(3, 4, 3), (4, 4, 1)]


class TestBackoff:
    def test_retry_sleeps_follow_exponential_schedule(
        self, store, results, monkeypatch, use
    ):
        from repro.store import scheduler

        sleeps = []
        monkeypatch.setattr(scheduler.time, "sleep", sleeps.append)
        use(CountingExecute(results, fail_indices=(2,), fail_times=2))
        run_tasks(TASKS, KEYS, store=store, retries=2, backoff=0.1)
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_no_sleep_on_first_attempt_or_success(
        self, store, results, monkeypatch, use
    ):
        from repro.store import scheduler

        sleeps = []
        monkeypatch.setattr(scheduler.time, "sleep", sleeps.append)
        use(CountingExecute(results))
        run_tasks(TASKS, KEYS, store=store, retries=3)
        assert sleeps == []

    def test_scheduler_error_carries_attempt_count(
        self, store, results, monkeypatch, use
    ):
        from repro.store import scheduler

        monkeypatch.setattr(scheduler.time, "sleep", lambda _s: None)
        ex = use(CountingExecute(results, fail_indices=(2,), fail_times=-1))
        with pytest.raises(SchedulerError) as err:
            run_tasks(TASKS, KEYS, store=store, retries=2, backoff=0.1)
        assert err.value.attempts == 3
        assert "3 attempts" in str(err.value)
        assert "backoff" in str(err.value)
        assert ex.calls.count(2) == 3

    def test_zero_retries_attempts_once(self, store, results, monkeypatch, use):
        from repro.store import scheduler

        sleeps = []
        monkeypatch.setattr(scheduler.time, "sleep", sleeps.append)
        use(CountingExecute(results, fail_indices=(2,), fail_times=-1))
        with pytest.raises(SchedulerError) as err:
            run_tasks(TASKS, KEYS, store=store, retries=0)
        assert err.value.attempts == 1
        assert sleeps == []
