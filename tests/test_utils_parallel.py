"""parallel_map: ordering, fallbacks, chunking, failure capture."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.utils import parallel
from repro.utils.parallel import TaskFailure, default_workers, parallel_map


def _square(x):
    return x * x


def _pid_of(_):
    return os.getpid()


def _explode_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x * x


def _die_on_three(x):
    if x == 3:
        os._exit(1)
    return x * x


def _ignore(done, total, chunk):
    pass


def _map(fn, items, **kwargs):
    return parallel_map(fn, items, progress=_ignore, **kwargs)


class TestSerialPath:
    def test_results_in_order(self):
        assert _map(_square, range(10), workers=1) == [x * x for x in range(10)]

    def test_empty(self):
        assert _map(_square, [], workers=1) == []

    def test_small_lists_stay_serial_even_with_workers(self):
        pids = _map(_pid_of, [1, 2, 3], workers=4)
        assert set(pids) == {os.getpid()}

    def test_generator_input(self):
        assert _map(_square, (x for x in range(5)), workers=1) == [
            0,
            1,
            4,
            9,
            16,
        ]


class TestParallelPath:
    def test_results_in_order_across_processes(self):
        out = _map(_square, range(37), workers=2)
        assert out == [x * x for x in range(37)]

    def test_explicit_chunk_size(self, monkeypatch):
        """One chunk per worker: 11 items in chunks of 6 and 5."""
        monkeypatch.setattr(parallel, "CHUNKS_PER_WORKER", 1)
        chunks = []
        out = parallel_map(
            _square,
            range(11),
            workers=2,
            progress=lambda done, total, chunk: chunks.append(len(chunk)),
        )
        assert out == [x * x for x in range(11)]
        assert sorted(chunks) == [5, 6]

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            _map(_square, range(4), workers=0)

    def test_pool_is_joined_before_returning(self):
        import multiprocessing

        assert _map(_pid_of, range(8), workers=2) != [os.getpid()] * 8
        assert multiprocessing.active_children() == []


class TestFailureCapture:
    def test_error_names_failed_indices(self):
        out = _map(_explode_on_odd, range(6), workers=1)
        failures = [r for r in out if isinstance(r, TaskFailure)]
        assert [f.index for f in failures] == [1, 3, 5]
        assert str(failures[0]) == "task 1: ValueError: odd input 1"

    def test_failures_preserve_siblings(self):
        out = _map(_explode_on_odd, range(6), workers=1)
        assert out[0::2] == [0, 4, 16]
        for i in (1, 3, 5):
            assert isinstance(out[i], TaskFailure)
            assert out[i].index == i
            assert isinstance(out[i].error, ValueError)
            assert "odd input" in out[i].traceback_str

    def test_failures_survive_the_pool(self):
        out = _map(_explode_on_odd, range(20), workers=2)
        failed = [r.index for r in out if isinstance(r, TaskFailure)]
        assert failed == list(range(1, 20, 2))
        assert [r for r in out if not isinstance(r, TaskFailure)] == [
            x * x for x in range(0, 20, 2)
        ]

    def test_dead_worker_fails_its_chunk(self):
        """A worker that dies costs its chunk (and every chunk still
        pending in the broken pool) a TaskFailure per item; chunks that
        finished first keep their results, and nothing raises."""
        reported = []
        out = parallel_map(
            _die_on_three,
            range(8),
            workers=2,
            progress=lambda done, total, chunk: reported.extend(chunk),
        )
        assert len(out) == len(reported) == 8
        broken = [r for r in out if isinstance(r, TaskFailure)]
        assert 3 in [f.index for f in broken]
        for f in broken:
            assert type(f.error).__name__ == "BrokenProcessPool"
            assert out[f.index] is f
        for i, r in enumerate(out):
            if not isinstance(r, TaskFailure):
                assert r == i * i

    def test_progress_hook_sees_failures(self):
        chunks = []
        parallel_map(
            _explode_on_odd,
            range(4),
            workers=1,
            progress=lambda done, total, chunk: chunks.extend(chunk),
        )
        assert sum(isinstance(c, TaskFailure) for c in chunks) == 2


def test_default_workers_at_least_one():
    assert default_workers() >= 1


def test_default_workers_honors_cpu_affinity(monkeypatch):
    """A process pinned to one CPU of a 64-CPU host gets one worker, not
    64; pinned to two, it gets two: the parent holds no CPU back."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert default_workers() == 2
