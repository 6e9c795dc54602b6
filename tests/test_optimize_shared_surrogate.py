"""The planner's shared surrogate memo: one model per density and process.

``optimize()`` reads its ring-model traces through
:meth:`SurrogateModel.shared`, so a query at a density some earlier
query probed re-runs no recursion.  Sharing is only safe because the
memo cannot change an answer: a warm query returns what a query on a
cleared memo returns, counters included, the memoized arrays are
read-only, carrier sense never shares a plain model's traces, and an
evicted density recomputes the same bits.  Every test starts from a
cleared memo, so none depends on what ran before it.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.analysis.carrier_model import CarrierRingModel
from repro.analysis.config import AnalysisConfig
from repro.analysis.ring_model import RingModel
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.obs.events import SearchStep
from repro.optimize import SurrogateModel, optimize
from repro.optimize.search import default_probability_grid
from repro.optimize.surrogate import SHARED_MODELS, _shared_model
from repro.sim.config import SimulationConfig

#: The query shapes of the e2e ``optimize`` workload.
SHAPES = (
    ({"latency": 5.0}, ("reachability",)),
    ({"reachability": 0.6}, ("energy",)),
    ({"energy": 35.0}, ("reachability",)),
    ({"reachability": 0.6}, ("latency",)),
)
KNOBS = dict(seed=20050113, resolution=0.05, replications=4, max_verify=2)
SMALL = AnalysisConfig(n_rings=3, rho=20.0, quad_nodes=32)
PS = [0.05, 0.2, 0.55, 1.0]


@pytest.fixture(autouse=True)
def _cleared_memo():
    _shared_model.cache_clear()
    yield
    _shared_model.cache_clear()


@pytest.fixture
def run_batch_calls(monkeypatch):
    """Counts every :meth:`RingModel.run_batch` call (carrier model too)."""
    calls: list[int] = []
    real = RingModel.run_batch

    def spy(self, p_grid, **kwargs):
        calls.append(len(p_grid))
        return real(self, p_grid, **kwargs)

    monkeypatch.setattr(RingModel, "run_batch", spy)
    return calls


def _query(rho, shape, **extra):
    bounds, objectives = SHAPES[shape]
    config = SimulationConfig(analysis=AnalysisConfig(rho=rho))
    return optimize(
        config, bounds=bounds, objectives=objectives, **{**KNOBS, **extra}
    )


def _traced_query(rho, shape):
    with obs_trace.capture() as buf:
        result = _query(rho, shape)
    probes = [s for s in buf.of_type(SearchStep) if s.stage == "probe"]
    return result, len(probes)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    @pytest.mark.parametrize("rho", [20.0, 140.0])
    def test_after_the_other_shapes(self, rho, shape):
        cold, cold_events = _traced_query(rho, shape)

        _shared_model.cache_clear()
        for other in range(len(SHAPES)):
            if other != shape:
                _query(rho, other, verify=False)
        warm, warm_events = _traced_query(rho, shape)

        assert warm.to_dict() == cold.to_dict()
        assert cold.surrogate_probes == cold_events
        assert warm.surrogate_probes == warm_events

    def test_repeat_runs_no_recursion(self, run_batch_calls):
        with obs_spans.capture_spans() as buf:
            cold = _query(20.0, 0, verify=False)
            lanes = sum(run_batch_calls)
            warm = _query(20.0, 0, verify=False)
        assert lanes > 0
        assert sum(run_batch_calls) == lanes
        assert warm.to_dict() == cold.to_dict()
        searches = buf.named("optimize.search")
        assert [s.counters["recursions"] for s in searches] == [lanes, 0]
        assert [s.counters["probes"] for s in searches] == [
            cold.surrogate_probes,
            warm.surrogate_probes,
        ]


class TestSharing:
    def test_one_model_per_analysis_config(self):
        plain = SimulationConfig(analysis=SMALL)
        model = SurrogateModel.shared(plain)
        assert SurrogateModel.shared(SMALL) is model
        # Simulation-only settings never reach the surrogate.
        other = SimulationConfig(
            analysis=SMALL, population="poisson", max_phases=40, half_duplex=True
        )
        assert SurrogateModel.shared(other) is model
        assert SurrogateModel.shared(SMALL.with_rho(21.0)) is not model

    def test_carrier_sense_never_shares_plain_traces(self):
        plain = SurrogateModel.shared(SMALL)
        carrier = SurrogateModel.shared(
            SimulationConfig(analysis=SMALL, carrier_sense=True)
        )
        assert carrier is not plain
        assert type(plain.model) is RingModel
        assert isinstance(carrier.model, CarrierRingModel)
        ours = carrier.traces(PS)
        theirs = plain.traces(PS)
        assert all(a is not b for a, b in zip(ours, theirs, strict=True))
        assert any(
            a.new_by_phase_ring.shape != b.new_by_phase_ring.shape
            or not np.array_equal(a.new_by_phase_ring, b.new_by_phase_ring)
            for a, b in zip(ours, theirs, strict=True)
        )

    def test_memoized_arrays_are_read_only(self):
        for trace in SurrogateModel.shared(SMALL).traces(PS):
            for array in (
                trace.new_by_phase_ring,
                trace.broadcasts_by_phase,
                trace.cumulative_reachability,
                trace.cumulative_broadcasts,
            ):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 0.5


class TestBound:
    def test_least_recent_density_is_evicted_and_recomputed(self, run_batch_calls):
        first = SurrogateModel.shared(SMALL)
        before = first.traces(PS)
        for k in range(1, SHARED_MODELS + 1):
            SurrogateModel.shared(SMALL.with_rho(20.0 + k))
        assert _shared_model.cache_info().currsize == SHARED_MODELS

        calls = len(run_batch_calls)
        again = SurrogateModel.shared(SMALL)
        assert again is not first
        after = again.traces(PS)
        assert len(run_batch_calls) == calls + 1
        for a, b in zip(before, after, strict=True):
            assert a.new_by_phase_ring.shape == b.new_by_phase_ring.shape
            assert a.new_by_phase_ring.tobytes() == b.new_by_phase_ring.tobytes()
            assert a.broadcasts_by_phase.tobytes() == b.broadcasts_by_phase.tobytes()

    def test_memoized_trace_cost(self):
        # The bound's memory claim: ~2 kB per memoized trace with its
        # cumulative series, so ~2 MB per density at resolution 0.001.
        model = SurrogateModel.shared(AnalysisConfig(rho=140.0))
        model.model.run_batch(np.asarray([0.5]))  # shared tables built
        ps = [float(p) for p in default_probability_grid(0.01)]
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            model.traces(ps)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (held - base) / len(ps) < 2500


class TestThreads:
    def test_concurrent_cold_queries_agree(self):
        knobs = dict(
            bounds={"latency": 5.0}, objectives=("reachability",), seed=7,
            resolution=0.02, verify=False,
        )
        want = optimize(SMALL, **knobs).to_dict()
        _shared_model.cache_clear()
        results: list[dict] = []

        def query():
            results.append(optimize(SMALL, **knobs).to_dict())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=query) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * len(threads)
