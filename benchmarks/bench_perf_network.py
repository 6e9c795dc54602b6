"""Microbenchmarks of deployment sampling and topology construction.

Topology construction dominates per-replication cost in the Monte-Carlo
sweeps (the broadcast itself touches far fewer node pairs), so the
band-sweep CSR builder is the component worth watching: once per run
(``build_disk_graph_csr``, behind ``Topology``) and once per 32-run
block (``build_disk_graph_csr_stacked``, behind ``StackedTopology``).
The per-run 3500-node build carries an absolute seed baseline in
``BENCH_perf.json``; the stacked block is seeded relative to the same
32 fields built one ``build_disk_graph_csr`` call at a time, measured
in the same run, so it guards "stacking costs no more than a loop" on
any machine.
"""

import numpy as np

from repro.network.deployment import DeploymentBatch, DiskDeployment
from repro.network.topology import build_disk_graph_csr, build_disk_graph_csr_stacked


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


def test_csr_build_stacked_32_reps_rho140(benchmark):
    """One block of the batched engine: 32 stacked rho=140 fields."""
    batch = _block_rho140()
    indptr, indices = benchmark(
        lambda: build_disk_graph_csr_stacked(
            batch.positions, batch.node_offsets, batch.radius
        )
    )
    assert len(indptr) == batch.n_nodes_total + 1 == 32 * 3501 + 1
    assert 100 < len(indices) / len(batch.positions) < 180


def test_csr_build_per_field_32_reps_rho140(benchmark):
    """The same 32 fields, one ``build_disk_graph_csr`` call each: the
    baseline of the stacked block's relative claim."""
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
