"""parallel_map: ordering, fallbacks, chunking, failure capture."""

import os

import pytest

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.utils.parallel import TaskFailure, default_workers, parallel_map


def _square(x):
    return x * x


def _pid_of(_):
    return os.getpid()


def _explode_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x * x


class TestSerialPath:
    def test_results_in_order(self):
        assert parallel_map(_square, range(10), workers=1) == [x * x for x in range(10)]

    def test_empty(self):
        assert parallel_map(_square, [], workers=1) == []

    def test_small_lists_stay_serial_even_with_workers(self):
        pids = parallel_map(_pid_of, [1, 2], workers=4, min_parallel=4)
        assert set(pids) == {os.getpid()}

    def test_generator_input(self):
        assert parallel_map(_square, (x for x in range(5)), workers=1) == [
            0,
            1,
            4,
            9,
            16,
        ]


class TestParallelPath:
    def test_results_in_order_across_processes(self):
        out = parallel_map(_square, range(37), workers=2, min_parallel=2)
        assert out == [x * x for x in range(37)]

    def test_explicit_chunk_size(self):
        out = parallel_map(_square, range(11), workers=2, chunk_size=3, min_parallel=2)
        assert out == [x * x for x in range(11)]

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, range(4), workers=0)

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, range(10), workers=2, chunk_size=0, min_parallel=2)


class TestFailureCapture:
    def test_error_names_failed_indices(self):
        with pytest.raises(ParallelExecutionError) as err:
            parallel_map(_explode_on_odd, range(6), workers=1)
        assert err.value.failures[0].index == 1
        assert [f.index for f in err.value.failures] == [1, 3, 5]
        assert "3/6" in str(err.value)

    def test_error_chains_first_cause(self):
        with pytest.raises(ParallelExecutionError) as err:
            parallel_map(_explode_on_odd, [1], workers=1)
        assert isinstance(err.value.__cause__, ValueError)

    def test_return_exceptions_preserves_siblings(self):
        out = parallel_map(
            _explode_on_odd, range(6), workers=1, return_exceptions=True
        )
        assert out[0::2] == [0, 4, 16]
        for i in (1, 3, 5):
            assert isinstance(out[i], TaskFailure)
            assert out[i].index == i
            assert isinstance(out[i].error, ValueError)
            assert "odd input" in out[i].traceback_str

    def test_failures_survive_the_pool(self):
        out = parallel_map(
            _explode_on_odd,
            range(20),
            workers=2,
            min_parallel=2,
            return_exceptions=True,
        )
        failed = [r.index for r in out if isinstance(r, TaskFailure)]
        assert failed == list(range(1, 20, 2))
        assert [r for r in out if not isinstance(r, TaskFailure)] == [
            x * x for x in range(0, 20, 2)
        ]

    def test_pool_path_raises_with_all_indices(self):
        with pytest.raises(ParallelExecutionError) as err:
            parallel_map(_explode_on_odd, range(20), workers=2, min_parallel=2)
        assert [f.index for f in err.value.failures] == list(range(1, 20, 2))

    def test_progress_hook_sees_failures(self):
        chunks = []
        parallel_map(
            _explode_on_odd,
            range(4),
            workers=1,
            progress=lambda done, total, chunk: chunks.extend(chunk),
            return_exceptions=True,
        )
        assert sum(isinstance(c, TaskFailure) for c in chunks) == 2


def test_default_workers_at_least_one():
    assert default_workers() >= 1


def test_default_workers_honors_cpu_affinity(monkeypatch):
    """A process pinned to one CPU of a 64-CPU host gets one worker, not 63."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1
