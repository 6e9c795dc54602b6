"""Unit-disk topology construction: grid index vs brute force, graph ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import Topology, build_disk_graph_csr


def brute_force_edges(positions, radius):
    n = len(positions)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(positions[i] - positions[j])) <= radius:
                edges.add((i, j))
    return edges


def csr_edges(indptr, indices):
    edges = set()
    for u in range(len(indptr) - 1):
        for v in indices[indptr[u] : indptr[u + 1]]:
            if u < v:
                edges.add((u, int(v)))
    return edges


class TestCsrConstruction:
    def test_matches_brute_force_random(self, rng):
        pos = rng.uniform(-5, 5, size=(300, 2))
        indptr, indices = build_disk_graph_csr(pos, 1.0)
        assert csr_edges(indptr, indices) == brute_force_edges(pos, 1.0)

    def test_matches_brute_force_clustered(self, rng):
        # Dense cluster stresses same-cell pair handling.
        pos = rng.normal(0, 0.3, size=(200, 2))
        indptr, indices = build_disk_graph_csr(pos, 0.5)
        assert csr_edges(indptr, indices) == brute_force_edges(pos, 0.5)

    def test_neighbor_lists_sorted(self, rng):
        pos = rng.uniform(0, 4, size=(150, 2))
        indptr, indices = build_disk_graph_csr(pos, 1.0)
        for u in range(150):
            row = indices[indptr[u] : indptr[u + 1]]
            assert np.all(np.diff(row) > 0)

    def test_no_self_loops(self, rng):
        pos = rng.uniform(0, 2, size=(100, 2))
        indptr, indices = build_disk_graph_csr(pos, 1.5)
        for u in range(100):
            assert u not in indices[indptr[u] : indptr[u + 1]]

    def test_symmetry(self, rng):
        pos = rng.uniform(0, 3, size=(120, 2))
        indptr, indices = build_disk_graph_csr(pos, 1.0)
        edges = csr_edges(indptr, indices)
        for u in range(120):
            for v in indices[indptr[u] : indptr[u + 1]]:
                lo, hi = min(u, int(v)), max(u, int(v))
                assert (lo, hi) in edges

    def test_empty(self):
        indptr, indices = build_disk_graph_csr(np.zeros((0, 2)), 1.0)
        assert len(indptr) == 1 and len(indices) == 0

    def test_single_node(self):
        indptr, indices = build_disk_graph_csr(np.zeros((1, 2)), 1.0)
        assert list(indptr) == [0, 0]

    def test_coincident_points_connected(self):
        pos = np.zeros((3, 2))
        indptr, indices = build_disk_graph_csr(pos, 1.0)
        assert len(indices) == 6  # complete graph on 3

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            build_disk_graph_csr(np.zeros((5, 3)), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_rejected(self, bad):
        pos = np.zeros((3, 2))
        pos[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            build_disk_graph_csr(pos, 1.0)

    def test_int64_keys_beyond_32k_points(self, rng):
        """Past 32 767 points the packed edge keys switch to int64."""
        k = 10
        ticks = np.arange(58) * 10.0
        centers = np.stack(np.meshgrid(ticks, ticks), -1).reshape(-1, 2)
        pos = np.repeat(centers, k, axis=0)
        pos += rng.uniform(-0.6, 0.6, size=pos.shape)
        n = len(pos)
        assert n > 32767
        indptr, indices = build_disk_graph_csr(pos, 1.0)
        # Clusters sit 10 apart, so the graph is block-diagonal.
        blocks = pos.reshape(-1, k, 2)
        dx = blocks[:, :, None, 0] - blocks[:, None, :, 0]
        dy = blocks[:, :, None, 1] - blocks[:, None, :, 1]
        adj = dx * dx + dy * dy <= 1.0
        adj[:, np.arange(k), np.arange(k)] = False
        c, i, j = np.nonzero(adj)
        assert np.array_equal(np.diff(indptr), np.bincount(c * k + i, minlength=n))
        assert np.array_equal(indices, c * k + j)

    @given(n=st.integers(min_value=2, max_value=60), r=st.floats(0.2, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_brute_force(self, n, r):
        rng = np.random.default_rng(n * 1000 + int(r * 10))
        pos = rng.uniform(-4, 4, size=(n, 2))
        indptr, indices = build_disk_graph_csr(pos, r)
        assert csr_edges(indptr, indices) == brute_force_edges(pos, r)


class TestTopology:
    def test_basic_properties(self, rng):
        pos = rng.uniform(0, 4, size=(80, 2))
        topo = Topology(pos, 1.0)
        assert topo.n_nodes == 80
        assert topo.degrees.sum() == 2 * topo.n_edges
        assert topo.mean_degree == pytest.approx(topo.degrees.mean())

    def test_neighbors_view(self, rng):
        pos = rng.uniform(0, 3, size=(50, 2))
        topo = Topology(pos, 1.0)
        nbrs = topo.neighbors(0)
        for v in nbrs:
            assert np.hypot(*(pos[0] - pos[v])) <= 1.0

    def test_positions_immutable(self, rng):
        topo = Topology(rng.uniform(0, 2, size=(10, 2)), 1.0)
        with pytest.raises(ValueError):
            topo.positions[0, 0] = 99.0

    def test_connectivity_line_vs_split(self):
        line = Topology(np.array([[0.0, 0], [1.0, 0], [2.0, 0]]), 1.1)
        assert line.is_connected()
        split = Topology(np.array([[0.0, 0], [1.0, 0], [10.0, 0]]), 1.1)
        assert not split.is_connected()

    def test_reachable_from(self):
        split = Topology(np.array([[0.0, 0], [1.0, 0], [10.0, 0]]), 1.1)
        mask = split.reachable_from(0)
        assert list(mask) == [True, True, False]

    def test_carrier_csr_superset(self, rng):
        pos = rng.uniform(0, 5, size=(100, 2))
        topo = Topology(pos, 1.0)
        c_indptr, c_indices = topo.carrier_csr()
        tx_edges = csr_edges(topo.indptr, topo.indices)
        carrier_edges = csr_edges(c_indptr, c_indices)
        assert tx_edges <= carrier_edges
        assert carrier_edges == brute_force_edges(pos, 2.0)

    def test_carrier_radius_default(self, rng):
        topo = Topology(rng.uniform(0, 2, (10, 2)), 1.5)
        assert topo.carrier_radius == 3.0

    def test_carrier_radius_below_radius_rejected(self, rng):
        with pytest.raises(ValueError):
            Topology(rng.uniform(0, 2, (10, 2)), 1.0, carrier_radius=0.5)

    def test_to_networkx(self):
        pos = np.array([[0.0, 0], [1.0, 0], [5.0, 0]])
        g = Topology(pos, 1.1).to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 1
        assert g.nodes[0]["pos"] == (0.0, 0.0)

    def test_iter_edges_unique(self, rng):
        topo = Topology(rng.uniform(0, 3, (60, 2)), 1.0)
        edges = list(topo.iter_edges())
        assert len(edges) == len(set(edges)) == topo.n_edges
