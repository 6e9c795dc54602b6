"""Relay policies: decision semantics, determinism, engine contract."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.topology import Topology
from repro.protocols.area import DistanceBasedRelay
from repro.protocols.base import EngineContext
from repro.protocols.counter import CounterBasedRelay
from repro.protocols.neighbor import NeighborKnowledgeRelay
from repro.protocols.pbcast import ProbabilisticRelay, SimpleFlooding


@pytest.fixture
def ctx():
    # A small cross of nodes around the origin.
    pos = np.array(
        [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.3, 0.0], [2.0, 0.0]]
    )
    topo = Topology(pos, radius=1.1)
    return EngineContext(
        positions=topo.positions,
        slots_per_phase=3,
        radius=1.1,
        build_topology=lambda: topo,
    )


ALL_POLICIES = [
    ProbabilisticRelay(0.5),
    SimpleFlooding(),
    CounterBasedRelay(threshold=2),
    DistanceBasedRelay(0.5),
    NeighborKnowledgeRelay(),
]


class TestContract:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_schedule_shapes(self, policy, ctx, rng):
        nodes = np.array([1, 3, 4])
        senders = np.array([0, 0, 0])
        will, slots = policy.schedule(nodes, senders, rng, ctx)
        assert np.asarray(will).shape == (3,)
        assert np.asarray(slots).shape == (3,)
        assert np.all((slots >= 0) & (slots < 3))

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_deterministic_under_seed(self, policy, ctx):
        nodes = np.array([1, 3, 4])
        senders = np.array([0, 0, 0])
        a = policy.schedule(nodes, senders, np.random.default_rng(9), ctx)
        b = policy.schedule(nodes, senders, np.random.default_rng(9), ctx)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_default_confirm_keeps_all(self, policy, ctx, rng):
        if isinstance(policy, CounterBasedRelay):
            pytest.skip("counter policy overrides confirm")
        keep = policy.confirm(np.array([1, 2]), np.array([5, 0]), rng, ctx)
        assert list(keep) == [True, True]

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_empty_batch(self, policy, ctx, rng):
        will, slots = policy.schedule(
            np.array([], dtype=int), np.array([], dtype=int), rng, ctx
        )
        assert len(will) == 0 and len(slots) == 0


class TestProbabilistic:
    def test_p_zero_never_relays(self, ctx, rng):
        will, _ = ProbabilisticRelay(0.0).schedule(
            np.arange(4), np.zeros(4, int), rng, ctx
        )
        assert not will.any()

    def test_p_one_always_relays(self, ctx, rng):
        will, _ = ProbabilisticRelay(1.0).schedule(
            np.arange(4), np.zeros(4, int), rng, ctx
        )
        assert will.all()

    def test_empirical_rate(self, ctx):
        rng = np.random.default_rng(0)
        pol = ProbabilisticRelay(0.3)
        wills = [
            pol.schedule(np.arange(100), np.zeros(100, int), rng, ctx)[0].mean()
            for _ in range(30)
        ]
        assert np.mean(wills) == pytest.approx(0.3, abs=0.03)

    def test_invalid_p(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticRelay(1.5)

    def test_flooding_is_p_one(self):
        assert SimpleFlooding().p == 1.0

    def test_slots_uniform(self, ctx):
        rng = np.random.default_rng(1)
        _, slots = ProbabilisticRelay(1.0).schedule(
            np.arange(3000), np.zeros(3000, int), rng, ctx
        )
        counts = np.bincount(slots, minlength=3)
        assert np.all(counts > 800)


class TestCounterBased:
    def test_cancels_at_threshold(self, ctx, rng):
        pol = CounterBasedRelay(threshold=2)
        keep = pol.confirm(np.array([1, 2, 3]), np.array([0, 1, 2]), rng, ctx)
        assert list(keep) == [True, True, False]

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            CounterBasedRelay(threshold=0)

    def test_schedules_like_pb(self, ctx, rng):
        will, _ = CounterBasedRelay(threshold=2, p=1.0).schedule(
            np.arange(5), np.zeros(5, int), rng, ctx
        )
        assert will.all()


class TestDistanceBased:
    def test_near_receivers_suppressed(self, ctx, rng):
        # Node 4 is 0.3 from sender 0 (< 0.5 * r); node 1 is 1.0 away.
        pol = DistanceBasedRelay(threshold=0.5)
        will, _ = pol.schedule(np.array([4, 1]), np.array([0, 0]), rng, ctx)
        assert list(will) == [False, True]

    def test_unknown_sender_fails_open(self, ctx, rng):
        pol = DistanceBasedRelay(threshold=0.9)
        will, _ = pol.schedule(np.array([4]), np.array([-1]), rng, ctx)
        assert will[0]

    def test_threshold_zero_always_relays(self, ctx, rng):
        pol = DistanceBasedRelay(threshold=0.0)
        will, _ = pol.schedule(np.array([4, 1]), np.array([0, 0]), rng, ctx)
        assert will.all()

    def test_extra_thinning(self, ctx):
        rng = np.random.default_rng(3)
        pol = DistanceBasedRelay(threshold=0.0, p=0.0)
        will, _ = pol.schedule(np.array([1]), np.array([0]), rng, ctx)
        assert not will.any()


class TestNeighborKnowledge:
    def test_fully_covered_receiver_silent(self, ctx, rng):
        # Node 4 (0.3, 0) neighbors: {0, 1, 2, 3}? distances: to 0: .3,
        # 1: .7, 2: 1.3 (out), 3: ~1.04 (in, radius 1.1).  Sender 0 covers
        # {1, 2, 3, 4}. Node 4's neighbors minus 0's coverage minus 0 = {}?
        pol = NeighborKnowledgeRelay()
        will, _ = pol.schedule(np.array([4]), np.array([0]), rng, ctx)
        assert not will[0]

    def test_frontier_receiver_relays(self, ctx, rng):
        # Node 1 (1, 0) has neighbor 5 (2, 0) which sender 0 cannot reach.
        pol = NeighborKnowledgeRelay()
        will, _ = pol.schedule(np.array([1]), np.array([0]), rng, ctx)
        assert will[0]

    def test_unknown_sender_fails_open(self, ctx, rng):
        pol = NeighborKnowledgeRelay()
        will, _ = pol.schedule(np.array([4]), np.array([-1]), rng, ctx)
        assert will[0]

    def test_mixed_batch(self, ctx, rng):
        pol = NeighborKnowledgeRelay()
        will, _ = pol.schedule(np.array([4, 1]), np.array([0, 0]), rng, ctx)
        assert list(will) == [False, True]
