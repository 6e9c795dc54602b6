"""The ring-model recursion (Eq. 3-4): invariants and paper-shape checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.config import AnalysisConfig
from repro.analysis.ring_model import RingModel
from repro.errors import ConfigurationError


class TestPhaseOne:
    def test_source_informs_ring_one(self, small_config):
        trace = RingModel(small_config).run(0.5, max_phases=1)
        np.testing.assert_allclose(
            trace.new_by_phase_ring[0], [small_config.rho, 0.0, 0.0]
        )

    def test_source_broadcast_counted(self, small_config):
        trace = RingModel(small_config).run(0.5, max_phases=1)
        assert trace.broadcasts_by_phase[0] == 1.0


class TestDegenerateProbabilities:
    def test_p_zero_only_ring_one(self, small_config):
        trace = RingModel(small_config).run(0.0)
        assert trace.informed_total == pytest.approx(small_config.rho)
        assert trace.broadcasts_total == pytest.approx(1.0)

    def test_p_validated(self, small_config):
        with pytest.raises(ConfigurationError):
            RingModel(small_config).run(1.5)


class TestConservation:
    @pytest.mark.parametrize("p", [0.05, 0.3, 1.0])
    def test_informed_never_exceeds_population(self, paper_config, p):
        trace = RingModel(paper_config).run(p, max_phases=120)
        assert trace.informed_total <= paper_config.n_nodes * (1 + 1e-9)

    @pytest.mark.parametrize("p", [0.1, 0.7])
    def test_per_ring_never_exceeds_ring_population(self, paper_config, p):
        trace = RingModel(paper_config).run(p, max_phases=120)
        model = RingModel(paper_config)
        ring_caps = paper_config.delta * model.partition.ring_areas
        assert np.all(trace.informed_by_ring() <= ring_caps * (1 + 1e-9))

    def test_arrivals_nonnegative(self, paper_config):
        trace = RingModel(paper_config).run(0.2, max_phases=60)
        assert np.all(trace.new_by_phase_ring >= -1e-12)

    def test_reachability_monotone_in_time(self, paper_config):
        trace = RingModel(paper_config).run(0.3, max_phases=40)
        assert np.all(np.diff(trace.cumulative_reachability) >= -1e-12)


class TestTermination:
    def test_stops_at_quiescence(self, paper_config):
        trace = RingModel(paper_config).run(0.5, max_phases=200)
        assert trace.phases < 200  # the wave dies well before the cap
        assert trace.new_by_phase[-1] < 1e-6 * paper_config.n_nodes

    def test_respects_max_phases(self, paper_config):
        trace = RingModel(paper_config).run(0.05, max_phases=4)
        assert trace.phases <= 4


class TestScalingInvariance:
    def test_density_probability_scaling_law(self):
        """The recursion depends on (p * rho) with arrivals ∝ rho.

        g(x) ∝ rho and mu sees g * p, so (rho, p) → (k*rho, p/k) rescales
        every n_j^i by k.  This is the structural reason the optimal p of
        Fig. 4(b) decays like 1/rho.
        """
        t1 = RingModel(AnalysisConfig(rho=20)).run(0.5, max_phases=10)
        t2 = RingModel(AnalysisConfig(rho=100)).run(0.1, max_phases=10)
        r1 = t1.new_by_phase_ring / 20.0
        r2 = t2.new_by_phase_ring / 100.0
        n = min(len(r1), len(r2))
        np.testing.assert_allclose(r1[:n], r2[:n], rtol=1e-8, atol=1e-10)

    def test_radius_scale_free(self):
        a = RingModel(AnalysisConfig(rho=40, radius=1.0)).run(0.3, max_phases=8)
        b = RingModel(AnalysisConfig(rho=40, radius=3.0)).run(0.3, max_phases=8)
        np.testing.assert_allclose(
            a.new_by_phase_ring, b.new_by_phase_ring, rtol=1e-9
        )


class TestPaperShapes:
    def test_reachability_bell_curve_in_p(self):
        # Fig. 4(a): at high density, reachability@5 rises then falls in p.
        model = RingModel(AnalysisConfig(rho=140))
        ps = [0.02, 0.09, 1.0]
        vals = [model.run(p, max_phases=5).reachability_after(5) for p in ps]
        assert vals[1] > vals[0] and vals[1] > vals[2]

    def test_optimal_p_decreases_with_density(self):
        grid = np.arange(0.02, 1.001, 0.02)
        opt = []
        for rho in (20, 140):
            model = RingModel(AnalysisConfig(rho=rho))
            vals = [model.run(p, max_phases=5).reachability_after(5) for p in grid]
            opt.append(grid[int(np.argmax(vals))])
        assert opt[1] < opt[0] / 3

    def test_flooding_worse_than_optimal_at_high_density(self):
        model = RingModel(AnalysisConfig(rho=140))
        flood = model.run(1.0, max_phases=5).reachability_after(5)
        tuned = model.run(0.09, max_phases=5).reachability_after(5)
        # Paper: flooding is ~0.55x the optimum at rho = 140.
        assert flood / tuned == pytest.approx(0.55, abs=0.08)


class TestMuMethodAblation:
    def test_poisson_method_runs_and_agrees_roughly(self, paper_config):
        interp = RingModel(paper_config).run(0.2, max_phases=5)
        pois = RingModel(paper_config.with_(mu_method="poisson")).run(
            0.2, max_phases=5
        )
        a = interp.reachability_after(5)
        b = pois.reachability_after(5)
        assert b == pytest.approx(a, abs=0.1)
        assert a != b  # the extensions genuinely differ


class TestRingIntegral:
    def test_constant_integrates_to_ring_area(self, paper_config):
        model = RingModel(paper_config)
        ones = np.ones(paper_config.quad_nodes)
        for j in range(1, paper_config.n_rings + 1):
            assert model.ring_integral(j, ones) == pytest.approx(
                model.partition.ring_areas[j - 1], rel=1e-12
            )


class TestInformedNeighbors:
    def test_all_rings_full_gives_rho(self, paper_config):
        # If the previous phase informed a full δ-density everywhere,
        # g(x) == rho for every interior position.
        model = RingModel(paper_config)
        full = paper_config.delta * model.partition.ring_areas
        for j in (2, 3, 4):
            g = model.informed_neighbors(j, full)
            np.testing.assert_allclose(g, paper_config.rho, rtol=1e-9)

    def test_empty_previous_phase(self, paper_config):
        model = RingModel(paper_config)
        g = model.informed_neighbors(3, np.zeros(5))
        np.testing.assert_allclose(g, 0.0)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_reception_probability_bounded(self, p):
        cfg = AnalysisConfig(n_rings=3, rho=25, quad_nodes=16)
        model = RingModel(cfg)
        prev = np.array([cfg.rho, 5.0, 0.0])
        mu = model._reception_probability(p, prev, np.arange(cfg.n_rings))
        assert mu.shape == (cfg.n_rings, cfg.quad_nodes)
        assert np.all((mu >= 0.0) & (mu <= 1.0))
