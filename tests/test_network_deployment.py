"""Disk deployments: source placement, populations, ring indexing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.deployment import DiskDeployment


class TestSampling:
    def test_source_at_origin(self, rng):
        dep = DiskDeployment.sample(rho=20, n_rings=3, rng=rng)
        assert dep.source == 0
        np.testing.assert_allclose(dep.positions[0], [0.0, 0.0])

    def test_fixed_population(self, rng):
        dep = DiskDeployment.sample(rho=20, n_rings=3, rng=rng)
        assert dep.n_field_nodes == round(20 * 9)
        assert dep.n_nodes == dep.n_field_nodes + 1

    def test_poisson_population_varies(self):
        counts = {
            DiskDeployment.sample(
                rho=20, n_rings=3, rng=np.random.default_rng(s), population="poisson"
            ).n_field_nodes
            for s in range(8)
        }
        assert len(counts) > 1

    def test_poisson_population_mean(self):
        counts = [
            DiskDeployment.sample(
                rho=20, n_rings=3, rng=np.random.default_rng(s), population="poisson"
            ).n_field_nodes
            for s in range(60)
        ]
        assert np.mean(counts) == pytest.approx(180, rel=0.1)

    def test_all_inside_field(self, rng):
        dep = DiskDeployment.sample(rho=30, n_rings=4, rng=rng)
        assert np.all(dep.radial_distances <= dep.field_radius + 1e-9)

    def test_invalid_population_mode(self, rng):
        with pytest.raises(ConfigurationError):
            DiskDeployment.sample(rho=20, n_rings=3, rng=rng, population="grid")

    def test_reproducible_under_seed(self):
        a = DiskDeployment.sample(rho=20, n_rings=3, rng=np.random.default_rng(5))
        b = DiskDeployment.sample(rho=20, n_rings=3, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.positions, b.positions)


class TestValidation:
    def test_source_must_be_origin(self):
        pos = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="origin"):
            DiskDeployment(positions=pos, radius=1.0, n_rings=2)

    def test_nodes_outside_field_rejected(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(ValueError, match="outside"):
            DiskDeployment(positions=pos, radius=1.0, n_rings=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_rejected(self, bad):
        pos = np.array([[0.0, 0.0], [0.5, bad]])
        with pytest.raises(ValueError, match="finite"):
            DiskDeployment(positions=pos, radius=1.0, n_rings=2)

    def test_positions_read_only(self, rng):
        dep = DiskDeployment.sample(rho=10, n_rings=2, rng=rng)
        with pytest.raises(ValueError):
            dep.positions[1, 0] = 0.0


class TestDerived:
    def test_ring_indices(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [1.5, 0.0], [2.9, 0.0]])
        dep = DiskDeployment(positions=pos, radius=1.0, n_rings=3)
        assert list(dep.ring_indices()) == [1, 1, 2, 3]

    def test_empirical_rho_close_to_target(self, rng):
        dep = DiskDeployment.sample(rho=40, n_rings=5, rng=rng)
        # Border effects bias the mean degree down a little.
        assert dep.empirical_rho() == pytest.approx(40, rel=0.25)
        assert dep.empirical_rho() < 40

    def test_topology_radius_matches(self, rng):
        dep = DiskDeployment.sample(rho=15, n_rings=2, radius=2.0, rng=rng)
        topo = dep.topology()
        assert topo.radius == 2.0
        assert topo.n_nodes == dep.n_nodes
