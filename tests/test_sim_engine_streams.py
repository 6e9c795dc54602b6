"""A traced block of R emits exactly the event streams of R blocks of one.

The slot loop buffers each replication's events and flushes the buffers
in replication order, so a sink never sees replications interleave:
the stream of a block is the concatenation of the streams its members
emit when run alone.  Replications that finish early, ragged node
counts, carrier sense, CFM, half-duplex radios, overheard-sender
bookkeeping and ``max_phases`` truncation must not change that.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs import capture
from repro.obs.events import (
    ChannelDelivery,
    NodeInformed,
    PhaseComplete,
    RunComplete,
    SlotResolved,
)
from repro.protocols.neighbor import NeighborKnowledgeRelay
from repro.protocols.pbcast import ProbabilisticRelay, SimpleFlooding
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_broadcast, run_broadcast_batch
from tests.test_obs_neutrality import assert_identical

SEED = 20050113


def _config(**kwargs) -> SimulationConfig:
    return SimulationConfig(
        analysis=AnalysisConfig(n_rings=3, rho=12.0, slots=3), **kwargs
    )


CASES = {
    "flooding": (SimpleFlooding(), _config()),
    "pb": (ProbabilisticRelay(0.5), _config(population="poisson")),
    "pb-carrier-sense": (ProbabilisticRelay(0.5), _config(carrier_sense=True)),
    "pb-cfm": (ProbabilisticRelay(0.5), _config(channel="cfm")),
    "flooding-half-duplex": (SimpleFlooding(), _config(half_duplex=True)),
    "pb-truncated": (ProbabilisticRelay(0.7), _config(max_phases=2)),
    "overheard": (NeighborKnowledgeRelay(), _config()),
}


@pytest.mark.parametrize("case", CASES)
def test_traced_block_is_concatenated_blocks_of_one(case):
    policy, config = CASES[case]
    seeds = np.random.SeedSequence(SEED).spawn(3)
    with capture() as block:
        batched = run_broadcast_batch(policy, config, seeds)
    with capture() as alone:
        singles = [run_broadcast(policy, config, s) for s in seeds]

    assert block.events == alone.events
    kinds = {type(e) for e in block.events}
    assert kinds == {ChannelDelivery, SlotResolved, NodeInformed, PhaseComplete, RunComplete}
    for b, s in zip(batched, singles, strict=True):
        assert_identical(b, s)

    # One RunComplete closes each replication's stream, in seed order.
    completes = block.of_type(RunComplete)
    assert [c.slots for c in completes] == [len(r.new_informed_by_slot) for r in singles]
    assert [c.collisions for c in completes] == [r.collisions for r in singles]
    if config.max_phases == 2:
        assert all(c.phases <= 2 for c in completes)



def test_channel_delivery_precedes_its_slot_and_ignores_half_duplex():
    """``ChannelDelivery`` is the channel's view of a slot, emitted just
    before that slot's ``SlotResolved``: it still counts transmitters
    that heard a clean packet, which half-duplex radios then drop."""
    policy, config = CASES["flooding-half-duplex"]
    with capture() as buf:
        run_broadcast_batch(policy, config, np.random.SeedSequence(SEED).spawn(3))
    events = buf.events
    pairs = [(a, b) for a, b in zip(events, events[1:]) if isinstance(a, ChannelDelivery)]
    assert pairs and all(isinstance(b, SlotResolved) for _, b in pairs)
    for channel, slot in pairs:
        assert channel.model == "cam"
        assert channel.n_tx == slot.n_tx
        assert channel.n_collided == slot.n_collisions
        assert channel.n_rx >= slot.n_rx
    assert any(channel.n_rx > slot.n_rx for channel, slot in pairs)
