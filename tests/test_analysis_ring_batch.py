"""Batched-p recursion (`run_batch`) and `run` against a per-ring reference.

The optimizer and figure sweeps ride on `run_batch`, and `run` is a
batch of one.  Both evaluate each phase as one array step over every
active lane and live ring.  These tests pin both bit for bit to
:class:`PerRingReference`, the per-ring loop the array step replaced,
kept here verbatim with its own quadrature rule, geometry and ``mu``
tables so that no setup shared with the model under test can hide a
change.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.carrier_model import CarrierRingModel
from repro.analysis.config import AnalysisConfig
from repro.analysis.ring_model import RingModel
from repro.collision.carrier import no_good_slot_table
from repro.collision.poisson import mu_poisson, mu_poisson_carrier
from repro.collision.slots import no_singleton_table
from repro.errors import ConfigurationError
from repro.geometry.rings import RingPartition


def assert_traces_match(batch_trace, scalar_trace):
    assert batch_trace.p == scalar_trace.p
    assert batch_trace.new_by_phase_ring.shape == scalar_trace.new_by_phase_ring.shape
    np.testing.assert_array_equal(
        batch_trace.new_by_phase_ring, scalar_trace.new_by_phase_ring
    )
    np.testing.assert_array_equal(
        batch_trace.broadcasts_by_phase, scalar_trace.broadcasts_by_phase
    )


@lru_cache(maxsize=None)
def _reference_mu_table(size, slots):
    return 1.0 - no_singleton_table(size, slots)


class PerRingReference:
    """The per-ring phase recursion, as `RingModel.run_batch` computed it
    before each phase became one array step (test-only reference)."""

    def __init__(self, config, *, carrier=False, exact_limit=96):
        self.config = config
        self.partition = RingPartition(config.n_rings, config.radius)
        x_unit, w_unit = np.polynomial.legendre.leggauss(config.quad_nodes)
        nodes = 0.5 * (x_unit + 1.0)
        weights = 0.5 * w_unit
        x = nodes * config.radius
        self._areas = [
            self.partition.transmission_areas(j, x)
            for j in range(1, config.n_rings + 1)
        ]
        self._radial_weight = [
            2.0 * np.pi * config.radius * (config.radius * (j - 1) + x) * weights
            for j in range(1, config.n_rings + 1)
        ]
        self._ring_areas = self.partition.ring_areas
        self._neighbor_weights = [
            [
                (k - 1, self._areas[j - 1][:, offset] / self._ring_areas[k - 1])
                for offset, k in enumerate((j - 1, j, j + 1))
                if 1 <= k <= config.n_rings
            ]
            for j in range(1, config.n_rings + 1)
        ]
        self._mu_kmax = 256
        self.carrier = carrier
        if carrier:
            self.exact_limit = exact_limit
            self._carrier_tables = {}
            self._carrier_shape = (0, 0)
            self._carrier_areas = [
                self.partition.carrier_areas(j, x, config.carrier_radius)
                for j in range(1, config.n_rings + 1)
            ]
            self._carrier_windows = [
                self.partition.carrier_window(j, config.carrier_radius)
                for j in range(1, config.n_rings + 1)
            ]

    def informed_neighbors(self, j, prev_new):
        prev_new = np.asarray(prev_new, dtype=float)
        g = np.zeros(prev_new.shape[:-1] + (self.config.quad_nodes,))
        for k_idx, weight in self._neighbor_weights[j - 1]:
            g += prev_new[..., k_idx, None] * weight
        return g

    def carrier_neighbors(self, j, prev_new):
        prev_new = np.asarray(prev_new, dtype=float)
        P = self.config.n_rings
        h = np.zeros(prev_new.shape[:-1] + (self.config.quad_nodes,))
        areas = self._carrier_areas[j - 1]
        for offset, k in enumerate(self._carrier_windows[j - 1]):
            if 1 <= k <= P:
                h += prev_new[..., k - 1, None] * areas[:, offset] / self._ring_areas[k - 1]
        return h

    def _mu_real(self, lam):
        if self.config.mu_method == "poisson":
            return mu_poisson(lam, self.config.slots)
        kmax = int(np.ceil(lam.max())) + 1
        while self._mu_kmax < kmax:
            self._mu_kmax *= 2
        tab = _reference_mu_table(self._mu_kmax, self.config.slots)
        lo = np.floor(lam).astype(int)
        frac = lam - lo
        return (1.0 - frac) * tab[lo] + frac * tab[lo + 1]

    def _carrier_table(self, k1max, k2max):
        slots = self.config.slots
        cached = self._carrier_tables.get(slots)
        need1 = max(k1max + 1, self._carrier_shape[0], 8)
        need2 = max(k2max + 1, self._carrier_shape[1], 8)
        if cached is None or cached.shape[0] < need1 or cached.shape[1] < need2:
            cached = 1.0 - no_good_slot_table(need1 - 1, need2 - 1, slots)
            cached[0, :] = 0.0
            self._carrier_tables[slots] = cached
            self._carrier_shape = cached.shape
        return cached

    def _mu_carrier_real(self, lam1, lam2):
        slots = self.config.slots
        l1, l2 = np.broadcast_arrays(np.atleast_1d(lam1), np.atleast_1d(lam2))
        out = np.empty(l1.shape, dtype=float)
        exact = np.ceil(l1) + np.ceil(l2) <= self.exact_limit
        if np.any(exact):
            e1 = l1[exact]
            e2 = l2[exact]
            tab = self._carrier_table(
                int(np.ceil(e1.max())) + 1, int(np.ceil(e2.max())) + 1
            )
            i1 = np.floor(e1).astype(int)
            i2 = np.floor(e2).astype(int)
            f1 = e1 - i1
            f2 = e2 - i2
            out[exact] = (
                (1 - f1) * (1 - f2) * tab[i1, i2]
                + f1 * (1 - f2) * tab[i1 + 1, i2]
                + (1 - f1) * f2 * tab[i1, i2 + 1]
                + f1 * f2 * tab[i1 + 1, i2 + 1]
            )
        if np.any(~exact):
            out[~exact] = mu_poisson_carrier(l1[~exact], l2[~exact], slots)
        return out

    def _reception_probability(self, j, p, prev_new):
        g = self.informed_neighbors(j, prev_new)
        if self.carrier:
            h = self.carrier_neighbors(j, prev_new)
            return self._mu_carrier_real(g * p, h * p)
        return self._mu_real(g * p)

    def _validated_initial(self, initial_informed):
        if initial_informed is None:
            new = np.zeros(self.config.n_rings)
            new[0] = self.config.rho
            return new
        return np.asarray(initial_informed, dtype=float).copy()

    def run_batch(
        self, p_grid, *, max_phases=200, initial_informed=None, initial_broadcasts=1.0
    ):
        """Per-lane ``(new_by_phase_ring, broadcasts_by_phase)`` pairs."""
        p_vec = np.asarray(p_grid, dtype=float)
        tol_abs = RingModel.DEFAULT_TOL * self.config.n_nodes

        cfg = self.config
        P = cfg.n_rings
        delta = cfg.delta
        B = p_vec.size
        p_col = p_vec[:, None]

        new = np.tile(self._validated_initial(initial_informed), (B, 1))
        cum = new.copy()
        history_new = [new.copy()]
        history_bcast = [np.full(B, float(initial_broadcasts))]
        active = np.ones(B, dtype=bool)
        phases = np.ones(B, dtype=np.int64)

        for _ in range(2, max_phases + 1):
            if not active.any():
                break
            nxt = np.zeros((B, P))
            for j in range(1, P + 1):
                capacity = delta * self._ring_areas[j - 1] - cum[:, j - 1]
                rows = active & (capacity > 0)
                if not rows.any():
                    continue
                mu = self._reception_probability(j, p_col[rows], new[rows])
                uninformed_density = capacity[rows] / self._ring_areas[j - 1]
                integral = (mu * self._radial_weight[j - 1]).sum(axis=-1)
                nxt[rows, j - 1] = np.minimum(
                    integral * uninformed_density, capacity[rows]
                )
            # Frozen lanes broadcast nothing; their entries are truncated
            # away below, so the zero is only a placeholder.
            bcast = np.where(active, p_vec * new.sum(axis=1), 0.0)
            history_bcast.append(bcast)
            history_new.append(nxt)
            cum += nxt
            new = nxt
            phases[active] += 1
            active &= new.sum(axis=1) >= tol_abs

        new_arr = np.stack(history_new)  # (T, B, P)
        bc_arr = np.stack(history_bcast)  # (T, B)
        return [
            (new_arr[: phases[b], b].copy(), bc_arr[: phases[b], b].copy())
            for b in range(B)
        ]


def assert_matches_reference(traces, reference, p_grid):
    assert len(traces) == len(reference) == len(p_grid)
    for p, trace, (ref_new, ref_bcast) in zip(p_grid, traces, reference, strict=True):
        assert trace.p == float(p)
        assert trace.new_by_phase_ring.shape == ref_new.shape
        assert np.array_equal(trace.new_by_phase_ring, ref_new)
        assert np.array_equal(trace.broadcasts_by_phase, ref_bcast)


GRID = np.arange(0.05, 1.001, 0.05)


class TestAgainstPerRingReference:
    @pytest.mark.parametrize("max_phases", [4, 200])
    @pytest.mark.parametrize("mu_method", ["interpolate", "poisson"])
    @pytest.mark.parametrize("n_rings", [1, 2, 5, 7])
    @pytest.mark.parametrize("rho", [20.0, 60.0, 140.0])
    def test_run_batch_and_run(self, rho, n_rings, mu_method, max_phases):
        cfg = AnalysisConfig(n_rings=n_rings, rho=rho, mu_method=mu_method)
        model = RingModel(cfg)
        reference = PerRingReference(cfg).run_batch(GRID, max_phases=max_phases)
        assert_matches_reference(
            model.run_batch(GRID, max_phases=max_phases), reference, GRID
        )
        ps = GRID[::4]
        runs = [model.run(float(p), max_phases=max_phases) for p in ps]
        assert_matches_reference(runs, reference[::4], ps)

    @pytest.mark.parametrize("rho", [20.0, 60.0, 140.0])
    def test_outer_ring_seeding(self, rho):
        cfg = AnalysisConfig(n_rings=5, rho=rho)
        initial = np.array([0.0, 0.0, 5.0, 0.0, 0.0])
        kwargs = {"initial_informed": initial, "initial_broadcasts": 5.0}
        model = RingModel(cfg)
        reference = PerRingReference(cfg).run_batch(GRID, **kwargs)
        assert_matches_reference(model.run_batch(GRID, **kwargs), reference, GRID)
        ps = GRID[::4]
        runs = [model.run(float(p), **kwargs) for p in ps]
        assert_matches_reference(runs, reference[::4], ps)

    def test_thousand_probabilities_dense(self):
        """More lanes than one array step takes: the lane blocks stitch
        back to the reference's single pass."""
        cfg = AnalysisConfig(rho=140.0)
        grid = np.linspace(0.001, 1.0, 1000)
        assert_matches_reference(
            RingModel(cfg).run_batch(grid),
            PerRingReference(cfg).run_batch(grid),
            grid,
        )

    @pytest.mark.parametrize("max_phases", [5, 60])
    @pytest.mark.parametrize("n_rings", [1, 3, 5])
    def test_carrier_model(self, n_rings, max_phases):
        cfg = AnalysisConfig(n_rings=n_rings, rho=60.0)
        model = CarrierRingModel(cfg)
        grid = GRID[::3]
        reference = PerRingReference(cfg, carrier=True).run_batch(
            grid, max_phases=max_phases
        )
        assert_matches_reference(
            model.run_batch(grid, max_phases=max_phases), reference, grid
        )
        runs = [model.run(float(p), max_phases=max_phases) for p in grid[::2]]
        assert_matches_reference(runs, reference[::2], grid[::2])

    def test_lane_without_capacity_gets_no_arrivals(self):
        """A ring stays in the step while any lane can still take
        arrivals; a lane that cannot (say a rounding overshoot left its
        capacity negative) gets none, as in the per-ring loop."""
        model = RingModel(AnalysisConfig(n_rings=3, rho=20.0))
        new = np.tile([20.0, 5.0, 0.0], (3, 1))
        capacity = np.array(
            [[0.0, 40.0, 90.0], [0.0, -1e-12, 90.0], [-1e-12, 0.0, 90.0]]
        )
        out = model._phase_step(np.full(3, 0.5), new, capacity)
        assert np.all(out[:, 0] == 0.0)
        assert out[0, 1] > 0.0
        assert out[1, 1] == 0.0 and out[2, 1] == 0.0
        assert np.all(out[:, 2] > 0.0)
        alone = model._phase_step(np.full(1, 0.5), new[:1], capacity[:1])
        assert np.array_equal(alone[0], out[0])

    @pytest.mark.parametrize("n_rings", [1, 3, 5])
    def test_neighbor_counts(self, n_rings):
        """The public Eq. (3) / Eq. (A.2) helpers read the stacked weights."""
        cfg = AnalysisConfig(n_rings=n_rings, rho=60.0)
        model = CarrierRingModel(cfg)
        reference = PerRingReference(cfg, carrier=True)
        prev = np.random.default_rng(7).uniform(0.0, 50.0, size=(4, n_rings))
        for j in range(1, n_rings + 1):
            assert np.array_equal(
                model.informed_neighbors(j, prev), reference.informed_neighbors(j, prev)
            )
            assert np.array_equal(
                model.carrier_neighbors(j, prev), reference.carrier_neighbors(j, prev)
            )


class TestRunBatchEquivalence:
    @pytest.mark.parametrize("rho", [20.0, 60.0, 140.0])
    def test_matches_scalar_run_quiescent(self, rho):
        model = RingModel(AnalysisConfig(n_rings=5, rho=rho))
        traces = model.run_batch(GRID)
        assert len(traces) == GRID.size
        for p, trace in zip(GRID, traces, strict=True):
            assert_traces_match(trace, model.run(float(p)))

    def test_matches_scalar_run_truncated(self, small_config):
        model = RingModel(small_config)
        for p, trace in zip(GRID, model.run_batch(GRID, max_phases=4), strict=True):
            assert_traces_match(trace, model.run(float(p), max_phases=4))

    def test_carrier_model_matches_scalar(self):
        model = CarrierRingModel(AnalysisConfig(n_rings=5, rho=60.0))
        grid = GRID[::3]
        for p, trace in zip(grid, model.run_batch(grid, max_phases=60), strict=True):
            assert_traces_match(trace, model.run(float(p), max_phases=60))

    def test_single_element_batch(self, small_config):
        model = RingModel(small_config)
        (trace,) = model.run_batch([0.4])
        assert_traces_match(trace, model.run(0.4))

    def test_custom_initial_informed(self, small_config):
        model = RingModel(small_config)
        initial = np.array([5.0, 2.0, 0.0])
        traces = model.run_batch([0.2, 0.9], initial_informed=initial)
        for p, trace in zip((0.2, 0.9), traces, strict=True):
            assert_traces_match(
                trace, model.run(p, initial_informed=initial)
            )

    def test_degenerate_probabilities(self, small_config):
        model = RingModel(small_config)
        for p, trace in zip((0.0, 1.0), model.run_batch([0.0, 1.0]), strict=True):
            assert_traces_match(trace, model.run(p))


class TestRunBatchValidation:
    def test_rejects_out_of_range(self, small_config):
        with pytest.raises(ConfigurationError):
            RingModel(small_config).run_batch([0.2, 1.5])

    def test_rejects_empty(self, small_config):
        with pytest.raises(ConfigurationError):
            RingModel(small_config).run_batch([])

    def test_rejects_2d(self, small_config):
        with pytest.raises(ConfigurationError):
            RingModel(small_config).run_batch([[0.2, 0.4]])

    def test_rejects_nan(self, small_config):
        with pytest.raises(ConfigurationError):
            RingModel(small_config).run_batch([0.2, float("nan")])
