"""An executable statement of the CAM and CFM slot rules.

The rules are written literally, one receiver at a time (Sec. 3.2.1 and
Sec. 3.2.2, assumption 6):

* CAM: ``v`` receives from ``u`` iff ``u`` is ``v``'s only transmitting
  neighbor within ``r`` and, with carrier sense on, also the only
  transmitter within the carrier radius.  ``v`` is *collided* iff at
  least two of its neighbors within ``r`` transmit (the convention of
  ``SlotResolved.n_collisions``).
* CFM: every neighbor of a transmitter receives, from its lowest-id
  transmitting neighbor, and nothing collides.

The vectorized kernel and both channels are checked against these
predicates exhaustively on small labelled graphs, and with hypothesis
on random geometric fields, alone and as several replications of one
block index.
The exhaustive checks resolve all transmitter subsets of one graph in
a single call, one disjoint copy of the graph per subset.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.cam import CollisionAwareChannel, counts_and_senders
from repro.models.cfm import CollisionFreeChannel
from repro.network.topology import BlockIndex, Topology, gather_neighbors

RADIUS = 1.0
CARRIER_RADIUS = 2.0


# ----------------------------------------------------------------------
# the rules
# ----------------------------------------------------------------------
def cam_rule(
    near: list[set[int]], tx: set[int], far: list[set[int]] | None = None
) -> tuple[dict[int, int], set[int]]:
    """CAM per receiver: ``({receiver: sender}, collided)``.

    ``near[v]`` are ``v``'s neighbors within ``r``; ``far[v]`` those
    within the carrier radius (``None``: carrier sense off).
    """
    deliveries: dict[int, int] = {}
    collided: set[int] = set()
    for v, nbrs in enumerate(near):
        in_range = nbrs & tx
        audible = in_range if far is None else far[v] & tx
        if len(in_range) == 1 and len(audible) == 1:
            (deliveries[v],) = in_range
        if len(in_range) >= 2:
            collided.add(v)
    return deliveries, collided


def cfm_rule(near: list[set[int]], tx: set[int]) -> tuple[dict[int, int], set[int]]:
    """CFM per receiver: ``({receiver: lowest transmitting neighbor}, {})``."""
    deliveries = {v: min(nbrs & tx) for v, nbrs in enumerate(near) if nbrs & tx}
    return deliveries, set()


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
class CsrGraph:
    """A bare CSR graph: everything a channel reads from a topology."""

    def __init__(
        self,
        near: list[set[int]],
        copies: int = 1,
        far: list[set[int]] | None = None,
    ) -> None:
        self.indptr, self.indices = _csr(near, copies)
        self.n_nodes = len(near) * copies
        self._carrier = None if far is None else _csr(far, copies)

    def neighbor_pairs(
        self, tx: np.ndarray, *, carrier: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        if carrier:
            assert self._carrier is not None
            return gather_neighbors(tx, *self._carrier)
        return gather_neighbors(tx, self.indptr, self.indices)


def _csr(near: list[set[int]], copies: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of ``copies`` disjoint copies; copy ``k`` owns ``[k*n, (k+1)*n)``."""
    n = len(near)
    rows = [sorted(nbrs) for nbrs in near]
    indptr0 = np.cumsum([0] + [len(r) for r in rows])
    indices0 = np.array([u for r in rows for u in r], dtype=np.int64)
    shift = np.arange(copies, dtype=np.int64)[:, None]
    indptr = np.concatenate(([0], (indptr0[1:] + shift * indptr0[-1]).ravel()))
    indices = (indices0 + shift * n).ravel()
    return indptr.astype(np.int64), indices


def labelled_graphs(max_nodes: int):
    """``(n, edges)`` for every graph on ``1..max_nodes`` labelled nodes."""
    for n in range(1, max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            yield n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def neighbor_sets(n: int, edges) -> list[set[int]]:
    near: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        near[u].add(v)
        near[v].add(u)
    return near


def subset_transmitters(n: int) -> tuple[list[set[int]], np.ndarray]:
    """Every subset of ``range(n)``, and its members placed in copy ``k``."""
    subsets = [{v for v in range(n) if k >> v & 1} for k in range(2**n)]
    tx = [k * n + v for k, s in enumerate(subsets) for v in sorted(s)]
    return subsets, np.array(tx, dtype=np.int64)


def split(receivers, senders, collided, n: int, copies: int):
    """Global outputs over ``copies`` blocks of ``n`` -> per-copy rule form."""
    out: list[tuple[dict[int, int], set[int]]] = [({}, set()) for _ in range(copies)]
    for v, u in zip(receivers.tolist(), senders.tolist(), strict=True):
        assert v // n == u // n, "a delivery crossed copies"
        out[v // n][0][v % n] = u % n
    for v in collided.tolist():
        out[v // n][1].add(v % n)
    return out


# ----------------------------------------------------------------------
# exhaustive checks
# ----------------------------------------------------------------------
def test_kernel_and_channels_on_every_graph_up_to_five_nodes():
    transmitters = {n: subset_transmitters(n) for n in range(1, 6)}
    checked = 0
    for n, edges in labelled_graphs(5):
        near = neighbor_sets(n, edges)
        subsets, tx = transmitters[n]
        copies = len(subsets)
        graph = CsrGraph(near, copies)

        counts, id_sum = counts_and_senders(*graph.neighbor_pairs(tx), graph.n_nodes)
        clean = np.flatnonzero(counts == 1)
        kernel = split(clean, id_sum[clean], np.flatnonzero(counts >= 2), n, copies)
        d_cam = CollisionAwareChannel(graph).resolve_slot(tx)
        cam = split(d_cam.receivers, d_cam.senders, d_cam.collided, n, copies)
        d_cfm = CollisionFreeChannel(graph).resolve_slot(tx)
        cfm = split(d_cfm.receivers, d_cfm.senders, d_cfm.collided, n, copies)

        for k, subset in enumerate(subsets):
            expected = cam_rule(near, subset)
            assert kernel[k] == expected, (n, edges, subset)
            assert cam[k] == expected, (n, edges, subset)
            assert cfm[k] == cfm_rule(near, subset), (n, edges, subset)
            checked += 1
    assert checked == 1 * 2 + 2 * 4 + 8 * 8 + 64 * 16 + 1024 * 32


def test_carrier_sense_on_every_graph_pair_up_to_four_nodes():
    """Every transmission graph inside every carrier graph: each node
    pair is unlinked, carrier-linked only, or linked in both."""
    checked = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        subsets, tx = subset_transmitters(n)
        copies = len(subsets)
        for states in itertools.product((0, 1, 2), repeat=len(pairs)):
            near = neighbor_sets(n, [p for p, s in zip(pairs, states) if s == 2])
            far = neighbor_sets(n, [p for p, s in zip(pairs, states) if s >= 1])
            graph = CsrGraph(near, copies, far)
            d = CollisionAwareChannel(graph, carrier_sense=True).resolve_slot(tx)
            got = split(d.receivers, d.senders, d.collided, n, copies)
            for k, subset in enumerate(subsets):
                assert got[k] == cam_rule(near, subset, far), (n, states, subset)
                checked += 1
    assert checked == 1 * 2 + 3 * 4 + 27 * 8 + 729 * 16


# ----------------------------------------------------------------------
# random geometric fields
# ----------------------------------------------------------------------
def within(positions: np.ndarray, reach: float) -> list[set[int]]:
    """Neighbor sets by the unit-disk predicate ``dx*dx + dy*dy <= reach**2``."""
    n = len(positions)
    out: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            dx = positions[u, 0] - positions[v, 0]
            dy = positions[u, 1] - positions[v, 1]
            if dx * dx + dy * dy <= reach * reach:
                out[u].add(v)
                out[v].add(u)
    return out


coordinate = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw, max_nodes: int = 24):
    """One field: positions and a transmitter mask."""
    n = draw(st.integers(1, max_nodes))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(points, dtype=float), np.array(mask, dtype=bool)


def expected_rules(positions: np.ndarray, mask: np.ndarray):
    near = within(positions, RADIUS)
    far = within(positions, CARRIER_RADIUS)
    tx = set(np.flatnonzero(mask).tolist())
    return {
        "cam": cam_rule(near, tx),
        "carrier": cam_rule(near, tx, far),
        "cfm": cfm_rule(near, tx),
    }


def resolve_all(topology, tx: np.ndarray):
    """Deliveries of the three channel variants over one topology."""
    return {
        "cam": CollisionAwareChannel(topology).resolve_slot(tx),
        "carrier": CollisionAwareChannel(topology, carrier_sense=True).resolve_slot(tx),
        "cfm": CollisionFreeChannel(topology).resolve_slot(tx),
    }


@given(field=fields())
@settings(max_examples=40, deadline=None)
def test_channels_on_random_fields(field):
    positions, mask = field
    topology = Topology(positions, RADIUS, carrier_radius=CARRIER_RADIUS)
    n = len(positions)
    expected = expected_rules(positions, mask)
    for variant, d in resolve_all(topology, np.flatnonzero(mask)).items():
        (got,) = split(d.receivers, d.senders, d.collided, n, 1)
        assert got == expected[variant], variant


@given(reps=st.lists(fields(max_nodes=16), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_channels_on_stacked_random_fields(reps):
    offsets = np.cumsum([0] + [len(p) for p, _ in reps])
    index = BlockIndex(
        np.vstack([p for p, _ in reps]),
        offsets,
        RADIUS,
        carrier_radius=CARRIER_RADIUS,
    )
    tx = np.concatenate([np.flatnonzero(m) + lo for (_, m), lo in zip(reps, offsets)])
    for variant, d in resolve_all(index, tx).items():
        for r, (positions, mask) in enumerate(reps):
            lo, hi = int(offsets[r]), int(offsets[r + 1])
            keep = (d.receivers >= lo) & (d.receivers < hi)
            coll = d.collided[(d.collided >= lo) & (d.collided < hi)]
            (got,) = split(
                d.receivers[keep] - lo, d.senders[keep] - lo, coll - lo, hi - lo, 1
            )
            assert got == expected_rules(positions, mask)[variant], (variant, r)
