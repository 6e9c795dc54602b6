"""Microbenchmarks of deployment sampling and neighbor lookup.

Two structures answer "who hears whom": the band-sweep CSR builder
(``build_disk_graph_csr``, behind ``Topology``), which the DES, TDMA and
neighbor-knowledge policies read, and the block index (``BlockIndex``)
that the vectorized engine queries once per slot for that slot's
transmitters.  The per-run 3500-node CSR build carries an absolute seed
baseline in ``BENCH_perf.json``.  The block-query cases time one
32-field rho=140 block's index plus every query of a p=0.1 and of a
flooding schedule; the 32 per-field CSR builds are the edge-list work
such a block no longer does.
"""

import numpy as np

from repro.network.deployment import DeploymentBatch, DiskDeployment
from repro.network.topology import BlockIndex, build_disk_graph_csr


def _positions(n, rng):
    r = 5.0 * np.sqrt(rng.random(n))
    th = rng.random(n) * 2 * np.pi
    return np.column_stack((r * np.cos(th), r * np.sin(th)))


def test_csr_build_500_nodes(benchmark):
    pos = _positions(500, np.random.default_rng(0))
    indptr, indices = benchmark(lambda: build_disk_graph_csr(pos, 1.0))
    assert len(indptr) == 501


def test_csr_build_3500_nodes(benchmark):
    pos = _positions(3500, np.random.default_rng(1))
    indptr, indices = benchmark(lambda: build_disk_graph_csr(pos, 1.0))
    assert len(indptr) == 3501
    # Sanity: mean degree ~ rho = delta * pi * r^2 = 3500/(pi*25) * pi = 140.
    assert 100 < len(indices) / 3500 < 180


def _block_rho140() -> DeploymentBatch:
    """The 32 rho=140 fields of one batched-engine block."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(4).spawn(32)]
    return DeploymentBatch.sample(rho=140, n_rings=5, rngs=rngs)


def _schedule(batch: DeploymentBatch, fraction: float, slots: int = 40) -> list:
    """A block's slots: a random ``fraction`` of its nodes, each
    transmitting once, dealt into ``slots`` transmitter sets."""
    rng = np.random.default_rng(5)
    tx = np.flatnonzero(rng.random(batch.n_nodes_total) < fraction)
    return [np.sort(part) for part in np.array_split(rng.permutation(tx), slots)]


def _query_block(batch: DeploymentBatch, schedule: list) -> int:
    index = BlockIndex(batch.positions, batch.node_offsets, batch.radius)
    for tx in schedule:
        index.neighbor_pairs(tx)
    return index.pairs


def test_block_query_pb01_32_reps_rho140(benchmark):
    """A p=0.1 block's graph work: the index plus its slots' queries."""
    batch = _block_rho140()
    schedule = _schedule(batch, 0.1)
    pairs = benchmark.pedantic(
        lambda: _query_block(batch, schedule), rounds=5, iterations=1
    )
    n_tx = sum(len(tx) for tx in schedule)
    assert 100 < pairs / n_tx < 180


def test_block_query_flooding_32_reps_rho140(benchmark):
    """A flooding block's graph work: every node transmits once."""
    batch = _block_rho140()
    schedule = _schedule(batch, 1.0)
    pairs = benchmark.pedantic(
        lambda: _query_block(batch, schedule), rounds=3, iterations=1
    )
    assert 100 < pairs / batch.n_nodes_total < 180


def test_csr_build_per_field_32_reps_rho140(benchmark):
    """The same 32 fields, one ``build_disk_graph_csr`` call each: the
    edge lists a block no longer builds."""
    batch = _block_rho140()
    offsets = batch.node_offsets
    fields = [
        batch.positions[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:], strict=True)
    ]
    graphs = benchmark(
        lambda: [build_disk_graph_csr(pos, batch.radius) for pos in fields]
    )
    assert sum(len(indptr) - 1 for indptr, _ in graphs) == 32 * 3501


def test_deployment_sample_dense(benchmark):
    rng = np.random.default_rng(2)
    dep = benchmark(
        lambda: DiskDeployment.sample(rho=140, n_rings=5, rng=rng)
    )
    assert dep.n_field_nodes == 3500


def test_full_deployment_plus_topology(benchmark):
    def build():
        rng = np.random.default_rng(3)
        dep = DiskDeployment.sample(rho=140, n_rings=5, rng=rng)
        return dep.topology()

    topo = benchmark.pedantic(build, rounds=3, iterations=1)
    assert topo.n_nodes == 3501
