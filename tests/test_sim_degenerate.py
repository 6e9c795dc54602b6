"""Degenerate inputs have one defined result, the same in both engines.

Pinned cases: a relay probability of zero (the source's slot is the
whole broadcast), a single field node, a source with no neighbor within
``r``, outer rings left empty, and a field with no nodes at all.  Under
``p = 0`` and the agreement tests' deterministic relay both engines
must produce identical slot series, each running to the end of its
last active phase, and a field without nodes is the same
:class:`~repro.errors.ProtocolError` before either engine runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import ProtocolError
from repro.network.deployment import DiskDeployment
from repro.optimize.spec import OptimizeQuery, evaluate_run
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.desimpl import DesBroadcastSimulation
from repro.sim.engine import run_broadcast
from tests.test_obs_agreement import DeterministicRelay

CONFIG = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=10.0, slots=3))

POLICIES = {"p0": ProbabilisticRelay(0.0), "deterministic": DeterministicRelay()}


def _both(policy, config, seed, deployment=None):
    vec = run_broadcast(policy, config, seed, deployment=deployment)
    des = DesBroadcastSimulation(policy, config, seed, deployment=deployment).run()
    return vec, des


def assert_same_series(vec, des, slots: int) -> None:
    assert np.array_equal(vec.new_informed_by_slot, des.new_informed_by_slot)
    assert np.array_equal(vec.broadcasts_by_slot, des.broadcasts_by_slot)
    assert len(vec.new_informed_by_slot) % slots == 0
    assert np.array_equal(vec.trace.new_by_phase_ring, des.trace.new_by_phase_ring)
    assert np.array_equal(vec.trace.broadcasts_by_phase, des.trace.broadcasts_by_phase)
    assert vec.total_tx == des.total_tx
    assert vec.total_rx == des.total_rx


def _fixed(points) -> DiskDeployment:
    return DiskDeployment(
        positions=np.array([[0.0, 0.0], *points]), radius=1.0, n_rings=3
    )


DEPLOYMENTS = {
    # Every field node lies beyond r of the source.
    "isolated-source": _fixed([[2.5, 0.0], [2.2, 1.0], [-1.5, -2.0]]),
    # Rings 2 and 3 hold no node.
    "empty-outer-rings": _fixed([[0.3, 0.2], [-0.5, 0.1], [0.2, -0.6], [-0.1, 0.7]]),
}


@pytest.mark.parametrize("seed", range(6))
def test_p_zero_is_one_phase_in_both_engines(seed):
    vec, des = _both(POLICIES["p0"], CONFIG, seed)
    assert_same_series(vec, des, CONFIG.slots)
    assert len(vec.new_informed_by_slot) == CONFIG.slots
    assert vec.total_tx == 1
    # An infeasible latency query reads the same stopping time.
    query = OptimizeQuery(bounds={"reachability": 0.9}, objectives=("latency",))
    ev_vec, ev_des = evaluate_run(vec, query), evaluate_run(des, query)
    assert not ev_vec.feasible and not ev_des.feasible
    assert ev_vec.latency == ev_des.latency == 1.0
    assert ev_vec.reachability == ev_des.reachability


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_field_node(policy, seed):
    config = SimulationConfig(analysis=AnalysisConfig(n_rings=1, rho=1.0, slots=3))
    vec, des = _both(POLICIES[policy], config, seed)
    assert vec.n_field_nodes == des.n_field_nodes == 1
    assert_same_series(vec, des, config.slots)
    assert vec.reachability == des.reachability == 1.0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", DEPLOYMENTS)
def test_fixed_deployments(policy, case):
    deployment = DEPLOYMENTS[case]
    vec, des = _both(POLICIES[policy], CONFIG, 5, deployment=deployment)
    assert_same_series(vec, des, CONFIG.slots)
    if case == "isolated-source":
        assert vec.reachability == 0.0
        assert len(vec.new_informed_by_slot) == CONFIG.slots
    else:
        assert vec.reachability > 0.0
        assert not vec.trace.new_by_phase_ring[:, 1:].any()


def test_no_field_nodes_is_the_same_error():
    config = SimulationConfig(
        analysis=AnalysisConfig(n_rings=1, rho=0.05), population="poisson"
    )
    policy = ProbabilisticRelay(0.5)
    with pytest.raises(ProtocolError, match="no field nodes"):
        run_broadcast(policy, config, 3)
    with pytest.raises(ProtocolError, match="no field nodes"):
        DesBroadcastSimulation(policy, config, 3)
