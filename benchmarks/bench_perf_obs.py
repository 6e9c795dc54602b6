"""Observability overhead: what telemetry costs the hot paths.

The acceptance bar is <2% on the instrumented paths with every sink
detached (the default state) — the engines hoist the tracer check to one
attribute read per run and one ``is not None`` test per slot, so the
disabled medians here must stay on top of ``bench_perf_engines``'s.
The attached-sink benchmarks quantify what a user pays to actually
record a trace (ring buffer, JSONL file) or spans with their counters.
"""

from repro.analysis.config import AnalysisConfig
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.protocols.pbcast import ProbabilisticRelay, SimpleFlooding
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast

CFG_MID = SimulationConfig(analysis=AnalysisConfig(rho=60))
CFG_DENSE = SimulationConfig(analysis=AnalysisConfig(rho=140))


def _run_mid():
    return run_broadcast(ProbabilisticRelay(0.2), CFG_MID, 0)


def test_tracing_disabled_pb_rho60(benchmark):
    """Baseline with the instrumentation compiled in but no sink attached."""
    assert not obs_trace.get_tracer().enabled
    assert not obs_spans.profiler().enabled
    res = benchmark(_run_mid)
    assert res.reachability > 0.5


def test_tracing_disabled_flooding_rho140(benchmark):
    assert not obs_trace.get_tracer().enabled
    res = benchmark.pedantic(
        lambda: run_broadcast(SimpleFlooding(), CFG_DENSE, 0),
        rounds=3,
        iterations=1,
    )
    assert res.collisions > 0


def test_tracing_null_sink_pb_rho60(benchmark):
    """The emit path itself: events built and dropped."""
    sink = obs_trace.NullSink()

    def run():
        with obs_trace.capture(sink):
            return _run_mid()

    res = benchmark(run)
    assert res.reachability > 0.5
    assert sink.count > 0


def test_tracing_ring_sink_pb_rho60(benchmark):
    def run():
        with obs_trace.capture() as buf:
            out = _run_mid()
        assert len(buf) > 0
        return out

    res = benchmark(run)
    assert res.reachability > 0.5


def test_tracing_jsonl_sink_pb_rho60(benchmark, tmp_path):
    counter = [0]

    def run():
        counter[0] += 1
        path = tmp_path / f"run{counter[0]}.jsonl"
        with obs_trace.capture(obs_trace.JsonlSink(path)):
            return _run_mid()

    res = benchmark.pedantic(run, rounds=5, iterations=1)
    assert res.reachability > 0.5


def test_spans_disabled_pb_rho60(benchmark):
    """Span hooks compiled in but no sink attached: must match the
    tracing-disabled baseline (the A of the A/B neutrality pair)."""
    assert not obs_spans.profiler().enabled
    res = benchmark(_run_mid)
    assert res.reachability > 0.5


def test_spans_enabled_pb_rho60(benchmark):
    """The B of the pair: spans recorded into an in-memory buffer."""

    def run():
        with obs_spans.capture_spans() as buf:
            out = _run_mid()
        assert len(buf) > 0
        return out

    res = benchmark(run)
    assert res.reachability > 0.5
