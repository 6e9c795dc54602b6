"""Telemetry must never change results.

Every engine/channel combination is run twice on identical seeds — once
with tracing (or span capture, which collects every run counter)
active, once with everything off — and the two
:class:`~repro.sim.results.RunResult`\\ s must be identical bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs import capture, capture_spans
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.desimpl import DesBroadcastSimulation
from repro.sim.engine import run_broadcast

SEED = 20050113


def _config(channel: str, carrier_sense: bool) -> SimulationConfig:
    return SimulationConfig(
        analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3),
        channel=channel,
        carrier_sense=carrier_sense,
        max_phases=40,
    )


def _run(engine: str, config: SimulationConfig):
    if engine == "vector":
        return run_broadcast(ProbabilisticRelay(0.6), config, SEED)
    return DesBroadcastSimulation(ProbabilisticRelay(0.6), config, SEED).run()


def assert_identical(a, b) -> None:
    """Field-by-field equality."""
    assert np.array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
    assert np.array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
    assert a.n_field_nodes == b.n_field_nodes
    assert a.collisions == b.collisions
    assert a.total_tx == b.total_tx
    assert a.total_rx == b.total_rx
    assert a.seed_entropy == b.seed_entropy
    assert np.array_equal(a.informed_mask, b.informed_mask)
    assert np.array_equal(
        a.trace.new_by_phase_ring, b.trace.new_by_phase_ring
    )
    assert np.array_equal(
        a.trace.broadcasts_by_phase, b.trace.broadcasts_by_phase
    )


CASES = [
    ("vector", "cfm", False),
    ("vector", "cam", False),
    ("vector", "cam", True),
    ("des", "cam", False),
    ("des", "cam", True),
]


@pytest.mark.parametrize(
    "engine,channel,carrier_sense",
    CASES,
    ids=[f"{e}-{c}{'-cs' if s else ''}" for e, c, s in CASES],
)
def test_tracing_is_neutral(engine, channel, carrier_sense):
    config = _config(channel, carrier_sense)
    plain = _run(engine, config)
    with capture() as buf:
        traced = _run(engine, config)
    assert len(buf) > 0, "tracing was on but no events were emitted"
    assert_identical(plain, traced)


@pytest.mark.parametrize(
    "engine,channel,carrier_sense",
    CASES,
    ids=[f"{e}-{c}{'-cs' if s else ''}" for e, c, s in CASES],
)
def test_metrics_collection_is_neutral(engine, channel, carrier_sense):
    """Span capture leaves the physics unchanged, and the run's span
    counts the collisions its result reports."""
    config = _config(channel, carrier_sense)
    plain = _run(engine, config)
    with capture_spans() as buf:
        collected = _run(engine, config)
    assert_identical(plain, collected)
    span = "engine.slot_loop" if engine == "vector" else "des.run"
    (run,) = buf.named(span)
    assert run.counters["collisions"] == collected.collisions


def test_tracing_and_metrics_together_are_neutral():
    config = _config("cam", False)
    for engine in ("vector", "des"):
        plain = _run(engine, config)
        with capture(), capture_spans():
            both = _run(engine, config)
        assert_identical(plain, both)
