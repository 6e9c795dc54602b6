"""Cross-engine bit-identity of the replication-batched engine.

The acceptance oracle of the batched path: for every replication ``r``,
``run_broadcast_batch(policy, config, seeds)[r]`` must equal
``run_broadcast(policy, config, seeds[r])`` bit for bit — and, since
the per-run engine is pinned against the DES reference elsewhere and
again here, the chain extends to :class:`repro.sim.desimpl`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.network.deployment import DiskDeployment
from repro.protocols.area import DistanceBasedRelay
from repro.protocols.base import RelayPolicy
from repro.protocols.counter import CounterBasedRelay
from repro.protocols.neighbor import NeighborKnowledgeRelay
from repro.protocols.pbcast import ProbabilisticRelay, SimpleFlooding
from repro.sim.config import SimulationConfig
from repro.sim.desimpl import DesBroadcastSimulation
from repro.sim.engine import run_broadcast, run_broadcast_batch

SEED = 20050113
R = 6


def assert_identical(a, b) -> None:
    """Field-by-field equality (``metrics`` excluded by design)."""
    assert np.array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
    assert np.array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
    assert a.n_field_nodes == b.n_field_nodes
    assert a.collisions == b.collisions
    assert a.total_tx == b.total_tx
    assert a.total_rx == b.total_rx
    assert a.seed_entropy == b.seed_entropy
    assert np.array_equal(a.informed_mask, b.informed_mask)
    assert np.array_equal(a.trace.new_by_phase_ring, b.trace.new_by_phase_ring)
    assert np.array_equal(a.trace.broadcasts_by_phase, b.trace.broadcasts_by_phase)
    assert a.trace.config == b.trace.config


def _config(**kw) -> SimulationConfig:
    return SimulationConfig(
        analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3), max_phases=40, **kw
    )


def _seeds(n=R):
    return np.random.SeedSequence(SEED).spawn(n)


CHANNEL_CASES = [
    dict(),
    dict(channel="cfm"),
    dict(carrier_sense=True),
]


class DeterministicRelay(RelayPolicy):
    """Always relay, slot derived from the node id — no coin flips, so
    the slot-stepper and the DES engine consume RNG identically and
    must coincide run for run (the repo's cross-engine contract, see
    ``tests/test_obs_agreement.py``)."""

    name = "deterministic"

    def schedule(self, new_nodes, senders, rng, ctx):
        nodes = np.asarray(new_nodes)
        return np.ones(len(nodes), dtype=bool), (nodes * 7 + 3) % ctx.slots_per_phase


class TestBitIdentity:
    @pytest.mark.parametrize(
        "cfg_kw", CHANNEL_CASES, ids=["cam", "cfm", "cam-cs"]
    )
    def test_flooding_matches_per_run(self, cfg_kw):
        cfg = _config(**cfg_kw)
        seeds = _seeds()
        batch = run_broadcast_batch(SimpleFlooding(), cfg, seeds)
        for r, seed in enumerate(seeds):
            assert_identical(batch[r], run_broadcast(SimpleFlooding(), cfg, seed))

    @pytest.mark.parametrize(
        "cfg_kw", CHANNEL_CASES, ids=["cam", "cfm", "cam-cs"]
    )
    def test_pb_matches_per_run(self, cfg_kw):
        cfg = _config(**cfg_kw)
        seeds = _seeds()
        batch = run_broadcast_batch(ProbabilisticRelay(0.4), cfg, seeds)
        for r, seed in enumerate(seeds):
            assert_identical(
                batch[r], run_broadcast(ProbabilisticRelay(0.4), cfg, seed)
            )

    @pytest.mark.parametrize(
        "policy",
        [CounterBasedRelay(2), NeighborKnowledgeRelay(), DistanceBasedRelay(0.5)],
        ids=["counter", "neighbor", "distance"],
    )
    def test_stateful_policies_match_per_run(self, policy):
        """Policies that consult duplicates, overheard senders, or node
        positions must see exactly the per-run local view."""
        cfg = _config()
        seeds = _seeds()
        batch = run_broadcast_batch(policy, cfg, seeds)
        for r, seed in enumerate(seeds):
            assert_identical(batch[r], run_broadcast(policy, cfg, seed))

    def test_half_duplex_matches_per_run(self):
        cfg = _config(half_duplex=True)
        seeds = _seeds()
        batch = run_broadcast_batch(SimpleFlooding(), cfg, seeds)
        for r, seed in enumerate(seeds):
            assert_identical(batch[r], run_broadcast(SimpleFlooding(), cfg, seed))

    def test_poisson_population_matches_per_run(self):
        """Ragged per-replication populations exercise the offsets."""
        cfg = _config(population="poisson")
        seeds = _seeds()
        batch = run_broadcast_batch(ProbabilisticRelay(0.5), cfg, seeds)
        for r, seed in enumerate(seeds):
            assert_identical(
                batch[r], run_broadcast(ProbabilisticRelay(0.5), cfg, seed)
            )

    def test_max_phases_truncation_matches_per_run(self):
        cfg = SimulationConfig(
            analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3), max_phases=2
        )
        seeds = _seeds()
        batch = run_broadcast_batch(SimpleFlooding(), cfg, seeds)
        for r, seed in enumerate(seeds):
            assert_identical(batch[r], run_broadcast(SimpleFlooding(), cfg, seed))

    def test_shared_deployments_match_per_run(self):
        """Common-random-numbers mode: deployments passed in, rng only
        drives the protocol decisions."""
        cfg = _config()
        rng = np.random.default_rng(5)
        deps = [DiskDeployment.sample(rho=20, n_rings=3, rng=rng) for _ in range(4)]
        seeds = _seeds(4)
        batch = run_broadcast_batch(
            ProbabilisticRelay(0.3), cfg, seeds, deployments=deps
        )
        for r, seed in enumerate(seeds):
            assert_identical(
                batch[r],
                run_broadcast(ProbabilisticRelay(0.3), cfg, seed, deployment=deps[r]),
            )

    def test_single_replication_block(self):
        cfg = _config()
        assert_identical(
            run_broadcast_batch(SimpleFlooding(), cfg, [42])[0],
            run_broadcast(SimpleFlooding(), cfg, 42),
        )

    @pytest.mark.parametrize("carrier_sense", [False, True], ids=["plain", "carrier"])
    def test_matches_des_reference(self, carrier_sense):
        """The chain closes: batch == per-run == DES.  Cross-engine
        identity with the continuous-time reference holds under the
        repo's contract — deterministic policy, shared deployment."""
        cfg = SimulationConfig(
            analysis=AnalysisConfig(n_rings=3, rho=6.0, slots=8),
            carrier_sense=carrier_sense,
            max_phases=12,
        )
        rng = np.random.default_rng(1000)
        deps = [
            DiskDeployment.sample(rho=cfg.rho, n_rings=cfg.n_rings, rng=rng)
            for _ in range(3)
        ]
        seeds = [7, 11, 1234]
        batch = run_broadcast_batch(
            DeterministicRelay(), cfg, seeds, deployments=deps
        )
        for r, seed in enumerate(seeds):
            des = DesBroadcastSimulation(
                DeterministicRelay(), cfg, seed, deployment=deps[r]
            ).run()
            assert batch[r].reachability == des.reachability
            assert batch[r].total_tx == des.total_tx
            assert batch[r].total_rx == des.total_rx
            k = min(
                len(batch[r].new_informed_by_slot), len(des.new_informed_by_slot)
            )
            assert np.array_equal(
                batch[r].new_informed_by_slot[:k], des.new_informed_by_slot[:k]
            )
            assert int(batch[r].new_informed_by_slot[k:].sum()) == 0
            assert int(des.new_informed_by_slot[k:].sum()) == 0


class TestLazyTopology:
    """Slots resolve from the block index; a replication's CSR is built
    only for a policy that reads ``ctx.topology``."""

    @pytest.mark.parametrize(
        "policy, builds",
        [
            (ProbabilisticRelay(0.5), 0),
            (SimpleFlooding(), 0),
            (CounterBasedRelay(threshold=2), 0),
            (DistanceBasedRelay(0.5), 0),
            (NeighborKnowledgeRelay(), R),
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_csr_built_only_when_read(self, monkeypatch, policy, builds):
        import repro.network.topology as topology_module

        calls = []
        real = topology_module.build_disk_graph_csr

        def counting(positions, radius):
            calls.append(len(positions))
            return real(positions, radius)

        monkeypatch.setattr(topology_module, "build_disk_graph_csr", counting)
        run_broadcast_batch(policy, _config(carrier_sense=True), _seeds())
        assert len(calls) == builds


class TestValidation:
    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_broadcast_batch(SimpleFlooding(), _config(), [])

    def test_deployments_misaligned_rejected(self):
        rng = np.random.default_rng(0)
        dep = DiskDeployment.sample(rho=20, n_rings=3, rng=rng)
        with pytest.raises(ValueError, match="must align"):
            run_broadcast_batch(
                SimpleFlooding(), _config(), [1, 2], deployments=[dep]
            )
