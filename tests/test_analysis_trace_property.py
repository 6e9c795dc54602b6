"""Property tests on BroadcastTrace metric consistency (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.config import AnalysisConfig
from repro.analysis.trace import BroadcastTrace


@st.composite
def traces(draw):
    """Random valid traces: nonnegative arrivals bounded by the population."""
    n_rings = draw(st.integers(min_value=1, max_value=4))
    phases = draw(st.integers(min_value=1, max_value=8))
    rho = draw(st.floats(min_value=5.0, max_value=50.0))
    cfg = AnalysisConfig(n_rings=n_rings, rho=rho, quad_nodes=8)
    total = cfg.n_nodes
    raw = draw(
        st.lists(
            st.lists(
                st.one_of(
                    st.just(0.0), st.floats(min_value=0.01, max_value=20.0)
                ),
                min_size=n_rings,
                max_size=n_rings,
            ),
            min_size=phases,
            max_size=phases,
        )
    )
    new = np.array(raw)
    # Scale down if the draw exceeds the population.
    s = new.sum()
    if s > total:
        new *= 0.9 * total / s
    # Broadcast increments are either exactly zero or macroscopic:
    # subnormal increments (1e-14 on a base of 2) are below the float
    # cancellation floor of any interpolation scheme and not physical.
    bcast = draw(
        st.lists(
            st.one_of(
                st.just(0.0), st.floats(min_value=0.01, max_value=50.0)
            ),
            min_size=phases,
            max_size=phases,
        )
    )
    return BroadcastTrace(
        config=cfg, p=0.5, new_by_phase_ring=new, broadcasts_by_phase=np.array(bcast)
    )


def attainable_target(trace, data, start=0):
    """A reachability target the trace crosses after phase ``start``: a
    drawn fraction of the way from its reachability there to its peak.

    Only a trace that informs nobody after ``start`` has no such target.
    """
    reach = np.concatenate(([0.0], trace.cumulative_reachability))
    lo, peak = float(reach[start]), float(reach[-1])
    assume(peak > lo)
    return lo + data.draw(st.floats(min_value=0.01, max_value=0.99)) * (peak - lo)


class TestTraceProperties:
    @given(trace=traces())
    @settings(max_examples=80, deadline=None)
    def test_reachability_monotone_nondecreasing(self, trace):
        ts = np.linspace(0, trace.phases + 1, 17)
        vals = [trace.reachability_after(t) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:], strict=False))

    @given(trace=traces())
    @settings(max_examples=80, deadline=None)
    def test_reachability_bounds(self, trace):
        for t in (0.5, 1.0, trace.phases, 100.0):
            r = trace.reachability_after(t)
            assert -1e-12 <= r <= 1.0 + 1e-12

    @given(trace=traces(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_latency_roundtrip(self, trace, data):
        target = attainable_target(trace, data)
        t = trace.latency_to(target)
        assert trace.reachability_after(t) == pytest.approx(target, abs=1e-9)
        assert 0.0 <= t <= trace.phases

    @given(trace=traces(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_energy_duality(self, trace, data):
        spends = trace.broadcasts_by_phase > 0
        assume(spends.any())  # a trace without broadcasts has no budget
        # A target crossed after the first broadcast costs a positive budget.
        target = attainable_target(trace, data, start=int(np.argmax(spends)))
        budget = trace.broadcasts_to(target)
        assert budget > 0
        reach = trace.reachability_within_energy(budget)
        # Spending exactly the budget needed for `target` yields >= target
        # (equality unless the crossing phase has zero broadcasts).
        assert reach >= target - 1e-9

    @given(trace=traces())
    @settings(max_examples=60, deadline=None)
    def test_broadcasts_at_monotone(self, trace):
        ts = np.linspace(0, trace.phases + 1, 13)
        vals = [trace.broadcasts_at(t) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:], strict=False))

    @given(trace=traces())
    @settings(max_examples=60, deadline=None)
    def test_truncation_consistency(self, trace):
        assume(trace.phases >= 2)
        t1 = trace.truncated(trace.phases - 1)
        # A truncated trace agrees on every earlier-phase quantity.
        assert t1.reachability_after(1) == pytest.approx(
            trace.reachability_after(1)
        )
        assert t1.broadcasts_at(1) == pytest.approx(trace.broadcasts_at(1))
