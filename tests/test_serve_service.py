"""QueryService: coalescing, batching, timeouts, bit-identity."""

import asyncio
import time

import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import ConfigurationError, ServeError
from repro.optimize.spec import evaluate_runs
from repro.protocols.pbcast import ProbabilisticRelay
from repro.serve import QueryService, parse_request
from repro.serve.compute import execute_tasks
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.store import DiskStore

BOUND = {
    "kind": "bound",
    "rho": 15.0,
    "p": 0.5,
    "seed": 7,
    "replications": 3,
    "bounds": {"latency": 30.0},
    "n_rings": 3,
}

OBJECTIVE = {
    "kind": "objective",
    "rho": 15.0,
    "ps": [0.3, 0.5],
    "seed": 7,
    "replications": 2,
    "bounds": {"latency": 30.0},
    "n_rings": 3,
}


class CountingExecute:
    """Wraps the real executor, counting calls and their batch sizes."""

    def __init__(self, delay: float = 0.0, fail_times: int = 0):
        self.calls: list[list[str]] = []
        self.delay = delay
        self.fail_times = fail_times

    def __call__(self, tasks, keys, store, *, workers=1, retries=1, backoff=0.05):
        self.calls.append(list(keys))
        if self.delay:
            time.sleep(self.delay)
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("injected batch failure")
        return execute_tasks(
            tasks, keys, store, workers=workers, retries=retries, backoff=backoff
        )


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("store", DiskStore(tmp_path / "store"))
    store = kwargs.pop("store")
    return QueryService(store, **kwargs)


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_k_identical_queries_one_scheduler_run(self, tmp_path):
        counting = CountingExecute()
        service = make_service(tmp_path, execute=counting)
        k = 5

        async def _go():
            async with service:
                return await asyncio.gather(
                    *(service.query(BOUND) for _ in range(k))
                )

        responses = run(_go())
        assert len(counting.calls) == 1  # the acceptance criterion
        assert len(counting.calls[0]) == BOUND["replications"]
        assert service.stats.dispatched == BOUND["replications"]
        assert service.stats.coalesced == (k - 1) * BOUND["replications"]
        assert service.stats.coalescing_ratio() == pytest.approx(k)
        first = responses[0]
        for other in responses[1:]:
            assert other == first

    def test_distinct_queries_batch_in_one_tick(self, tmp_path):
        counting = CountingExecute()
        service = make_service(tmp_path, execute=counting)
        other = dict(BOUND, p=0.3, seed=11)

        async def _go():
            async with service:
                await asyncio.gather(service.query(BOUND), service.query(other))

        run(_go())
        # Both queries' misses drained in ONE per-tick batch.
        assert len(counting.calls) == 1
        assert len(counting.calls[0]) == 2 * BOUND["replications"]
        assert service.stats.batches == 1

    def test_sequential_queries_hit_memory(self, tmp_path):
        counting = CountingExecute()
        service = make_service(tmp_path, execute=counting)

        async def _go():
            async with service:
                first = await service.query(BOUND)
                second = await service.query(BOUND)
                return first, second

        first, second = run(_go())
        assert first == second
        assert len(counting.calls) == 1  # warm pass never reached compute
        assert service.stats.memory_hits == BOUND["replications"]

    def test_shared_seeds_coalesce_across_kinds(self, tmp_path):
        """CRN seed sharing: the objective's p=0.5 slice reuses BOUND's."""
        counting = CountingExecute()
        service = make_service(tmp_path, execute=counting)
        objective = dict(OBJECTIVE, replications=3)

        async def _go():
            async with service:
                await service.query(BOUND)
                await service.query(objective)

        run(_go())
        total_keys = sum(len(keys) for keys in counting.calls)
        # 3 (bound) + 3 (objective p=0.3); the p=0.5 slice was warm.
        assert total_keys == 6
        assert service.stats.memory_hits == 3


class TestTimeoutsAndRetries:
    def test_timeout_then_retry_succeeds(self, tmp_path):
        counting = CountingExecute(delay=0.3)
        service = make_service(
            tmp_path, execute=counting, timeout=0.1, retries=3, backoff=0.01
        )

        async def _go():
            async with service:
                return await service.query(BOUND)

        response = run(_go())
        assert response["id"]
        assert service.stats.timeouts >= 1
        assert service.stats.retries >= 1
        # Retries re-joined the surviving in-flight future: one run.
        assert len(counting.calls) == 1

    def test_exhausted_retries_raise_serve_error(self, tmp_path):
        counting = CountingExecute(delay=0.5)
        service = make_service(
            tmp_path, execute=counting, timeout=0.05, retries=0
        )

        async def _go():
            async with service:
                with pytest.raises(ServeError, match="timed out after 1 attempt"):
                    await service.query(BOUND)

        run(_go())
        assert service.stats.timeouts == 1

    def test_batch_failure_propagates_then_retry_recovers(self, tmp_path):
        counting = CountingExecute(fail_times=1)
        service = make_service(
            tmp_path, execute=counting, retries=0, timeout=5.0
        )

        async def _go():
            async with service:
                with pytest.raises(RuntimeError, match="injected batch failure"):
                    await service.query(BOUND)
                # The failed keys left the single-flight map; a fresh
                # query schedules a fresh (now succeeding) batch.
                return await service.query(BOUND)

        response = run(_go())
        assert response["feasible"] in (True, False)
        assert len(counting.calls) == 2

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="timeout"):
            make_service(tmp_path, timeout=0.0)
        with pytest.raises(ConfigurationError, match="retries"):
            make_service(tmp_path, retries=-1)

    def test_closed_service_rejects_queries(self, tmp_path):
        service = make_service(tmp_path)

        async def _go():
            async with service:
                pass
            with pytest.raises(ServeError, match="closed"):
                await service.query(BOUND)

        run(_go())


class TestResponses:
    def test_bound_response_shape(self, tmp_path):
        service = make_service(tmp_path)

        async def _go():
            async with service:
                return await service.query(BOUND)

        response = run(_go())
        assert response["kind"] == "bound"
        assert response["rho"] == 15.0
        assert response["tasks"] == BOUND["replications"]
        assert len(response["evaluations"]) == 1
        assert response["best"] == response["evaluations"][0]
        assert isinstance(response["feasible"], bool)

    def test_objective_response_evaluates_all_ps(self, tmp_path):
        service = make_service(tmp_path)

        async def _go():
            async with service:
                return await service.query(OBJECTIVE)

        response = run(_go())
        assert response["kind"] == "objective"
        assert [ev["p"] for ev in response["evaluations"]] == [0.3, 0.5]
        if response["feasible"]:
            assert response["best"]["feasible"]

    def test_answers_bit_identical_to_offline_run(self, tmp_path):
        """The serving stack changes nothing about the numbers."""
        service = make_service(tmp_path)

        async def _go():
            async with service:
                return await service.query(BOUND)

        response = run(_go())
        request = parse_request(BOUND)
        cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15.0))
        offline = replicate(
            ProbabilisticRelay(0.5), cfg, BOUND["replications"], seed=7
        )
        expected = evaluate_runs(offline, request.query(), 0.5)
        got = response["evaluations"][0]
        assert got["reachability"] == expected.reachability
        assert got["latency"] == expected.latency
        assert got["energy"] == expected.energy
        assert got["feasible"] == expected.feasible

    def test_accepts_json_string_requests(self, tmp_path):
        import json

        service = make_service(tmp_path)

        async def _go():
            async with service:
                return await service.query(json.dumps(BOUND))

        assert run(_go())["kind"] == "bound"

    def test_storeless_service_still_coalesces(self, tmp_path):
        counting = CountingExecute()
        service = QueryService(None, execute=counting)

        async def _go():
            async with service:
                return await asyncio.gather(
                    service.query(BOUND), service.query(BOUND)
                )

        a, b = run(_go())
        assert a == b
        assert len(counting.calls) == 1
        assert service.stats.memory_hits == 0


class TestComputeBlocks:
    def test_misses_run_in_blocks_per_request_and_p(self, tmp_path):
        """A miss batch runs one engine block per (request, p) run of
        tasks, DES tasks one at a time, with results bit-identical to
        executing every task alone."""
        from repro.obs import spans
        from repro.serve.compute import plan_tasks
        from repro.sim.runner import execute_block
        from tests.test_obs_neutrality import assert_identical

        plans = [
            plan_tasks(parse_request(OBJECTIVE)),
            plan_tasks(parse_request(dict(BOUND, engine="des"))),
            plan_tasks(parse_request(BOUND)),
        ]
        tasks = [t for plan in plans for t in plan.tasks]
        keys = [k for plan in plans for k in plan.keys]
        with spans.capture_spans() as buf:
            results = execute_tasks(tasks, keys, DiskStore(tmp_path / "store"))
        blocks = [s.counters["reps"] for s in buf.named("engine.run_batch")]
        assert blocks == [2.0, 2.0, 3.0]
        # OBJECTIVE (2 ps x 2 reps), the DES bound request (3 blocks of
        # one), the vector bound request (one block of 3).
        blocks = [s.counters["reps"] for s in buf.named("runner.block")]
        assert blocks == [2.0, 2.0, 1.0, 1.0, 1.0, 3.0]
        for task, result in zip(tasks, results, strict=True):
            (alone,) = execute_block([task])
            assert_identical(result, alone)
