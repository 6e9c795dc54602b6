"""Stacked deployments and the block index of the batched engine.

Pins the layout contracts: a :class:`DeploymentBatch` draw is
bit-identical to ``R`` independent per-run draws, and every
replication's neighbor pairs from the :class:`BlockIndex` equal the CSR
a standalone :class:`Topology` builds for it.  The index's pairs are
also checked against an all-pairs brute force with the builder's own
predicate, on random ragged stacks, on random transmitter subsets of
hundreds of replications, and on the geometries that sit on the band
sweep's edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.deployment import DeploymentBatch, DiskDeployment
from repro.network.topology import BlockIndex, Topology, build_disk_graph_csr

SEED = 20050113


def _brute_force_csr(positions, radius):
    """All-pairs CSR with the builder's predicate ``dx*dx + dy*dy <= r*r``."""
    pos = np.asarray(positions, dtype=float)
    dx = pos[:, None, 0] - pos[None, :, 0]
    dy = pos[:, None, 1] - pos[None, :, 1]
    adj = dx * dx + dy * dy <= radius * radius
    np.fill_diagonal(adj, False)
    rows, cols = np.nonzero(adj)
    indptr = np.zeros(len(pos) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(pos)), out=indptr[1:])
    return indptr, cols


def _pairs_csr(index, *, carrier=False):
    """Every node's pairs from the index as a global CSR keyed by
    sender, each row's receivers ascending."""
    n = index.n_nodes
    receivers, senders = index.neighbor_pairs(np.arange(n), carrier=carrier)
    order = np.lexsort((receivers, senders))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(senders, minlength=n), out=indptr[1:])
    return indptr, receivers[order]


def _assert_stacked_matches_brute_force(positions, node_offsets, radius):
    index = BlockIndex(positions, node_offsets, radius)
    indptr, indices = _pairs_csr(index)
    assert len(indptr) == node_offsets[-1] + 1
    assert indptr[0] == 0 and indptr[-1] == len(indices)
    for lo, hi in zip(node_offsets[:-1], node_offsets[1:], strict=True):
        ref_indptr, ref_indices = _brute_force_csr(positions[lo:hi], radius)
        e0 = indptr[lo]
        assert np.array_equal(indptr[lo : hi + 1] - e0, ref_indptr)
        assert np.array_equal(indices[e0 : indptr[hi]] - lo, ref_indices)
    return indptr, indices


def _stack(*fields):
    offsets = np.concatenate(([0], np.cumsum([len(f) for f in fields])))
    return np.concatenate(fields).reshape(-1, 2), offsets


def _batch(n=5, *, population="fixed", rho=20.0):
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(n)]
    return DeploymentBatch.sample(rho=rho, n_rings=3, rngs=rngs, population=population)


def _per_run_deployments(n=5, *, population="fixed", rho=20.0):
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(n)]
    return [
        DiskDeployment.sample(rho=rho, n_rings=3, rng=rng, population=population)
        for rng in rngs
    ]


class TestDeploymentBatch:
    @pytest.mark.parametrize("population", ["fixed", "poisson"])
    def test_sample_bit_identical_to_per_run(self, population):
        batch = _batch(population=population)
        singles = _per_run_deployments(population=population)
        assert batch.n_reps == len(singles)
        for r, dep in enumerate(singles):
            lo, hi = batch.node_offsets[r], batch.node_offsets[r + 1]
            assert hi - lo == dep.n_nodes
            assert np.array_equal(batch.positions[lo:hi], dep.positions)

    def test_generator_state_matches_per_run(self):
        """The batch draw consumes *exactly* the per-run random stream:
        the generators end in the same state either way."""
        ss = np.random.SeedSequence(SEED).spawn(3)
        rngs_a = [np.random.default_rng(s) for s in ss]
        rngs_b = [np.random.default_rng(s) for s in ss]
        DeploymentBatch.sample(rho=20.0, n_rings=3, rngs=rngs_a)
        for rng in rngs_b:
            DiskDeployment.sample(rho=20.0, n_rings=3, rng=rng)
        for a, b in zip(rngs_a, rngs_b):
            assert a.bit_generator.state == b.bit_generator.state

    def test_offsets_and_sources(self):
        batch = _batch()
        counts = [dep.n_nodes for dep in batch.deployments]
        assert batch.node_offsets[0] == 0
        assert np.array_equal(np.diff(batch.node_offsets), counts)
        assert batch.n_nodes_total == sum(counts)
        # Every source sits at the origin of its block.
        assert np.allclose(batch.positions[batch.node_offsets[:-1]], 0.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DeploymentBatch([])

    def test_mismatched_geometry_rejected(self):
        rng = np.random.default_rng(0)
        a = DiskDeployment.sample(rho=10, n_rings=3, rng=rng)
        b = DiskDeployment.sample(rho=10, n_rings=4, rng=rng)
        with pytest.raises(ValueError, match="share radius and n_rings"):
            DeploymentBatch([a, b])


def _rep_csr(indptr, indices, lo, hi):
    """Replication ``[lo, hi)``'s rows of a global CSR, in local ids."""
    e0 = int(indptr[lo])
    return indptr[lo : hi + 1] - e0, indices[e0 : int(indptr[hi])] - lo


class TestStackedTopology:
    """A block index's pairs, replication by replication."""

    def test_rep_slices_match_standalone_csr(self):
        batch = _batch()
        indptr, indices = _pairs_csr(
            BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        )
        offsets = batch.node_offsets
        for r, dep in enumerate(batch.deployments):
            local = _rep_csr(indptr, indices, offsets[r], offsets[r + 1])
            ref_indptr, ref_indices = build_disk_graph_csr(
                dep.positions, batch.radius
            )
            assert np.array_equal(local[0], ref_indptr)
            assert np.array_equal(local[1], ref_indices)

    def test_rep_slices_match_standalone_csr_ragged(self):
        batch = _batch(population="poisson")
        indptr, indices = _pairs_csr(
            BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        )
        offsets = batch.node_offsets
        for r, dep in enumerate(batch.deployments):
            local = _rep_csr(indptr, indices, offsets[r], offsets[r + 1])
            ref_indptr, ref_indices = build_disk_graph_csr(
                dep.positions, batch.radius
            )
            assert np.array_equal(local[0], ref_indptr)
            assert np.array_equal(local[1], ref_indices)

    def test_no_cross_replication_edges(self):
        """Pairs stay inside their owner's block — the block index never
        lets two replications see each other."""
        batch = _batch()
        index = BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        for carrier in (False, True):
            receivers, senders = index.neighbor_pairs(
                np.arange(index.n_nodes), carrier=carrier
            )
            rep_of = np.searchsorted(batch.node_offsets, np.arange(index.n_nodes), "right")
            assert np.array_equal(rep_of[receivers], rep_of[senders])

    def test_carrier_csr_matches_standalone(self):
        batch = _batch()
        index = BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        c_indptr, c_indices = _pairs_csr(index, carrier=True)
        offsets = batch.node_offsets
        for r, dep in enumerate(batch.deployments):
            local = _rep_csr(c_indptr, c_indices, offsets[r], offsets[r + 1])
            ref_indptr, ref_indices = build_disk_graph_csr(
                dep.positions, index.carrier_radius
            )
            assert np.array_equal(local[0], ref_indptr)
            assert np.array_equal(local[1], ref_indices)

    def test_rep_topology_views(self):
        """One transmitter's pairs are its standalone topology's row."""
        batch = _batch()
        index = BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        for r, dep in enumerate(batch.deployments):
            lo = int(batch.node_offsets[r])
            ref = Topology(dep.positions, batch.radius)
            for node in range(0, ref.n_nodes, 7):
                receivers, senders = index.neighbor_pairs(np.array([lo + node]))
                assert np.all(senders == lo + node)
                assert np.array_equal(np.sort(receivers) - lo, ref.neighbors(node))

    def test_default_carrier_radius(self):
        batch = _batch(2)
        index = BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        assert index.carrier_radius == 2.0 * index.radius

    def test_carrier_radius_below_radius_rejected(self):
        batch = _batch(2)
        with pytest.raises(ValueError, match="carrier_radius"):
            BlockIndex(
                batch.positions, batch.node_offsets, batch.radius, carrier_radius=0.5
            )

    def test_single_replication(self):
        batch = _batch(1)
        indptr, indices = _pairs_csr(
            BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        )
        ref = Topology(batch.deployments[0].positions, batch.radius)
        assert np.array_equal(indptr, ref.indptr)
        assert np.array_equal(indices, ref.indices)


class TestStackedBruteForce:
    @given(
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        lattice=st.booleans(),
        radius=st.sampled_from([0.25, 0.7, 1.0, 1.3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_ragged_stacks(self, counts, seed, lattice, radius):
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        pos = rng.uniform(-3.0, 3.0, size=(int(offsets[-1]), 2))
        if lattice:
            # A radius/2 lattice puts pairs at distance exactly r and
            # points exactly on band edges.
            pos = np.round(pos / (radius / 2)) * (radius / 2)
        _assert_stacked_matches_brute_force(pos, offsets, radius)

    @pytest.mark.parametrize("radius", [1.0, 0.5])
    def test_lattice_at_spacing_radius(self, radius):
        """Axial neighbors at exactly r stay linked; diagonals do not."""
        k = 7
        ticks = np.arange(k) * radius
        xx, yy = np.meshgrid(ticks, ticks)
        grid = np.column_stack((xx.ravel(), yy.ravel()))
        pos, offsets = _stack(grid, grid + np.array([-3.0, 11.0]) * radius)
        indptr, indices = _assert_stacked_matches_brute_force(pos, offsets, radius)
        assert len(indices) == 2 * 4 * k * (k - 1)  # two lattices, axial only
        assert list(indices[indptr[0] : indptr[1]]) == [1, k]

    def test_horizontal_line(self, rng):
        line = np.column_stack((rng.uniform(0, 12, 80), np.full(80, 0.3)))
        _assert_stacked_matches_brute_force(*_stack(line, line[::-1]), 1.0)

    def test_vertical_line(self, rng):
        line = np.column_stack((np.full(80, -2.0), rng.uniform(0, 12, 80)))
        _assert_stacked_matches_brute_force(*_stack(line, line[::-1]), 1.0)

    def test_coincident_points(self):
        pos, offsets = _stack(np.full((6, 2), 1.5), np.zeros((4, 2)))
        _, indices = _assert_stacked_matches_brute_force(pos, offsets, 1.0)
        assert len(indices) == 6 * 5 + 4 * 3  # two complete graphs

    def test_source_only_replication_between_full_ones(self):
        full = [_batch(2).deployments[r].positions for r in range(2)]
        pos, offsets = _stack(full[0], np.zeros((1, 2)), full[1])
        indptr, _ = _assert_stacked_matches_brute_force(pos, offsets, 1.0)
        lone = int(offsets[1])
        assert indptr[lone] == indptr[lone + 1]

    def test_field_far_from_origin(self, rng):
        far = np.array([1e6, -2e6])
        fields = [rng.uniform(0, 3, size=(60, 2)) + far for _ in range(2)]
        _assert_stacked_matches_brute_force(*_stack(*fields), 1.0)


def _brute_force_pairs(positions, node_offsets, tx, radius):
    """Sorted ``(receiver, sender)`` pairs of ``tx`` by the all-pairs
    predicate, replication by replication."""
    out = []
    for lo, hi in zip(node_offsets[:-1], node_offsets[1:], strict=True):
        mine = tx[(tx >= lo) & (tx < hi)]
        if not len(mine):
            continue
        pos = positions[lo:hi]
        dx = pos[None, :, 0] - positions[mine, None, 0]
        dy = pos[None, :, 1] - positions[mine, None, 1]
        hit = dx * dx + dy * dy <= radius * radius
        hit[np.arange(len(mine)), mine - lo] = False
        s, rcv = np.nonzero(hit)
        out.extend(zip((rcv + lo).tolist(), mine[s].tolist(), strict=True))
    return sorted(out)


class TestBlockQuery:
    """Random transmitter subsets of hundreds of replications."""

    @given(
        counts=st.lists(st.integers(0, 12), min_size=200, max_size=260),
        seed=st.integers(0, 2**32 - 1),
        far=st.booleans(),
        lattice=st.booleans(),
        radius=st.sampled_from([0.25, 1.0, 1.3]),
        carrier_factor=st.sampled_from([1.0, 2.0, 2.7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_equal_brute_force(
        self, counts, seed, far, lattice, radius, carrier_factor
    ):
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        pos = rng.uniform(-3.0, 3.0, size=(int(offsets[-1]), 2))
        if lattice:
            pos = np.round(pos / (radius / 2)) * (radius / 2)
        if far:
            pos += np.array([1e6, -2e6])
        index = BlockIndex(pos, offsets, radius, carrier_radius=carrier_factor * radius)
        tx = np.flatnonzero(rng.random(len(pos)) < rng.uniform(0.05, 1.0))
        for carrier, reach in ((False, radius), (True, index.carrier_radius)):
            receivers, senders = index.neighbor_pairs(tx, carrier=carrier)
            got = sorted(zip(receivers.tolist(), senders.tolist(), strict=True))
            assert got == _brute_force_pairs(pos, offsets, tx, reach), carrier

    def test_pairs_counter(self):
        batch = _batch(3)
        index = BlockIndex(batch.positions, batch.node_offsets, batch.radius)
        receivers, _ = index.neighbor_pairs(np.arange(0, index.n_nodes, 3))
        c_receivers, _ = index.neighbor_pairs(np.arange(5), carrier=True)
        assert index.pairs == len(receivers) + len(c_receivers) > 0


class TestBuilderValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_rejected(self, bad):
        pos = np.zeros((4, 2))
        pos[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            BlockIndex(pos, np.array([0, 2, 4]), 1.0)

    def test_empty_node_offsets_rejected(self):
        with pytest.raises(ValueError, match="node_offsets"):
            BlockIndex(np.zeros((0, 2)), np.array([]), 1.0)

    @pytest.mark.parametrize("offsets", [[0, 3, 2, 4], [0, 2], [1, 4]])
    def test_bad_node_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="node_offsets"):
            BlockIndex(np.zeros((4, 2)), np.array(offsets), 1.0)

    def test_empty_block(self):
        index = BlockIndex(np.zeros((0, 2)), np.array([0, 0]), 1.0)
        receivers, senders = index.neighbor_pairs(np.zeros(0, dtype=np.int64))
        assert receivers.size == senders.size == index.pairs == 0
