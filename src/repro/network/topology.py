"""Unit-disk communication graphs in CSR form.

The communication graph of assumption 2 connects every pair of nodes
within transmission radius ``r``.  For the vectorized engine we need the
adjacency as flat CSR arrays (``indptr``/``indices``), and we need to
build it fast for thousands of Monte-Carlo replications.  One builder
does it, a band sweep: the points are sorted once by (horizontal band
of height ``r/2``, ``x``), so a point's possible partners in its own
band and in each of the next two are one contiguous run of the sorted
order, which ``searchsorted`` finds on an ``x``-window narrowed to
``sqrt(r^2 - gap^2)`` for that band's vertical gap.  All distance work
happens on flat candidate-pair arrays, one per band offset (~1.3
candidates per edge); there is no Python loop over points or cells.

The same builder gives the ``carrier_radius`` graph of Appendix A on
demand (neighbors within carrier-sense range but *also* within it —
the carrier graph includes the transmission graph; CAM code subtracts
as needed).

For replication-batched Monte-Carlo, :class:`StackedTopology` stores
``R`` independent deployments as one CSR structure over globally
renumbered nodes (replication ``r`` owns ids
``[node_offsets[r], node_offsets[r+1])``), so a single gather/bincount
pass serves every replication's slot at once.  Its builder
(:func:`build_disk_graph_csr_stacked`) runs the band sweep on one
replication at a time and splices the blocks together with their
global id offsets, so cross-replication edges are impossible by
construction.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "Topology",
    "StackedTopology",
    "build_disk_graph_csr",
    "build_disk_graph_csr_stacked",
]


#: Band height as a fraction of the search reach.  Bands of half a
#: radius put a point's partners in its own band and the next two, and
#: narrowing each band's x-window to its vertical gap leaves ~1.3
#: candidate pairs per edge.
_BAND = 0.5

#: Padding of the search reach, relative to the radius plus the largest
#: coordinate magnitude.  It dwarfs the few-ulp rounding of the shifted
#: coordinates, band floors, sort keys and window bounds, so every pair
#: the edge predicate accepts is a candidate; it only adds candidates,
#: never edges.
_SLACK = 1e-12


def _as_positions(positions: np.ndarray) -> np.ndarray:
    """``positions`` as a finite float ``(n, 2)`` array, else ValueError."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {positions.shape}")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite (no NaN or inf)")
    return positions


def _build_field_csr(
    positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """One field's CSR adjacency by a band sweep (``n >= 1`` points).

    Edges are the pairs with ``dx*dx + dy*dy <= radius*radius`` in the
    input coordinates; rows and columns are input ids and each row's
    neighbors are ascending.  ``indices`` is int32 while the packed
    ``row << shift | col`` edge keys fit (fields below 32 768 points),
    int64 beyond.

    Points are sorted once by the float key ``band * width + x``, with
    ``x``/``y`` taken from the field's lower-left corner, band
    ``floor(y / h)`` for ``h = _BAND * reach`` (``reach`` is the radius
    plus the rounding slack) and ``width`` a power of two of at least
    twice the x-extent plus four reaches: ``band * width`` is exact, and
    each band is one x-sorted run that no query aimed at another band
    can reach.  A point's partners lie in its own band (later points
    only, so each pair is met once) and the next two; in band ``b + d``
    they are the run within ``sqrt(reach**2 - gap**2)`` of its ``x``,
    ``gap`` being the least vertical distance to that band, and
    ``searchsorted`` finds the run's ends.  Each of the three band
    offsets is one pass that expands every point's run into flat
    candidate pairs: the a-side coordinates stream out of ``np.repeat``,
    the b-side ones are gathered, and the float predicate picks the
    edges.  Accepted pairs are packed into both directed keys and
    value-sorted, which orders the rows and each row's columns at once
    (each directed edge is unique, so its key is too).
    """
    n = positions.shape[0]
    x = positions[:, 0]
    y = positions[:, 1]
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    slack = _SLACK * (radius + max(-x0, x1, -y0, y1))
    reach = radius + slack
    h = _BAND * reach
    width = 2.0 ** math.ceil(math.log2(2.0 * (x1 - x0) + 4.0 * reach))
    xs = x - x0
    band = np.floor((y - y0) / h)
    base = band * width
    keys = base + xs
    order = np.argsort(keys)
    skeys = keys[order]
    sxs = xs[order]
    sbase = base[order]
    sx = x[order]
    sy = y[order]
    # gap0 + d * h is the vertical gap from each point up to the bottom
    # of band b + d, less the slack: a lower bound for any partner there.
    gap0 = band[order] * h - (sy - y0) - slack

    # int32 ids and keys halve the traffic of the edge sort that
    # dominates CSR assembly.
    shift = n.bit_length()
    key_dtype = np.int32 if n << shift <= np.iinfo(np.int32).max else np.int64
    ids = order.astype(key_dtype)
    r2 = radius * radius
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for d in (0, 1, 2):
        if d == 0:
            first = np.arange(1, n + 1)
            last = np.searchsorted(skeys, sbase + (sxs + reach), side="right")
        else:
            # Half-width of the x-window into band b + d, in place.
            w = gap0 + d * h
            np.maximum(w, 0.0, out=w)
            w *= w
            np.subtract(reach * reach, w, out=w)
            np.maximum(w, 0.0, out=w)
            np.sqrt(w, out=w)
            target = sbase + d * width
            first = np.searchsorted(skeys, target + (sxs - w), side="left")
            last = np.searchsorted(skeys, target + (sxs + w), side="right")
        runs = last - first
        # b-side sorted positions: the ranges [first, last) concatenated.
        b = np.arange(int(runs.sum()))
        b += np.repeat(first - (np.cumsum(runs) - runs), runs)
        d2 = np.repeat(sx, runs)
        d2 -= sx[b]
        dy = np.repeat(sy, runs)
        dy -= sy[b]
        d2 *= d2
        dy *= dy
        d2 += dy
        hit = d2 <= r2
        # Free the float temporaries now, not at return, so they are not
        # resident through the id selection and the edge sort.
        del d2, dy
        src_parts.append(np.repeat(ids, runs)[hit])
        dst_parts.append(ids[b[hit]])
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    m = len(src)
    packed = np.empty(2 * m, dtype=key_dtype)
    np.left_shift(src, shift, out=packed[:m])
    packed[:m] |= dst
    np.left_shift(dst, shift, out=packed[m:])
    packed[m:] |= src
    packed.sort()
    # Row starts fall straight out of bisecting the sorted keys at each
    # row's key range — no per-edge row decode needed.
    row_keys = np.arange(n + 1, dtype=key_dtype) << shift
    indptr = np.searchsorted(packed, row_keys).astype(np.int64)
    packed &= (1 << shift) - 1
    return indptr, packed


def build_disk_graph_csr(
    positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (``indptr``, ``indices``) of the unit-disk graph.

    Edges connect distinct points whose float64 ``dx*dx + dy*dy`` is
    ``<= radius*radius``; the graph is symmetric and has no self-loops.
    Each row's neighbor list is sorted ascending; both arrays are int64.
    Non-finite positions raise ``ValueError``.
    """
    positions = _as_positions(positions)
    radius = check_positive("radius", radius)
    if positions.shape[0] == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    indptr, cols = _build_field_csr(positions, radius)
    return indptr, cols.astype(np.int64)


def build_disk_graph_csr_stacked(
    positions: np.ndarray, node_offsets: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of ``R`` stacked unit-disk graphs.

    Parameters
    ----------
    positions:
        ``(N, 2)`` coordinates of all replications concatenated;
        replication ``r`` owns rows ``[node_offsets[r], node_offsets[r+1])``.
    node_offsets:
        ``(R + 1,)`` cumulative node counts (``node_offsets[0] == 0``,
        ``node_offsets[-1] == N``).
    radius:
        Transmission radius, shared by every replication.

    Returns
    -------
    (indptr, indices):
        One CSR structure over the *global* ids.  Within each
        replication's block it is bit-identical to what
        :func:`build_disk_graph_csr` produces for that replication alone
        (same edges, neighbor lists sorted ascending); there are never
        edges between replications.  ``indices`` is int32 while the
        global ids fit.

    Raises
    ------
    ValueError
        On non-finite positions, or ``node_offsets`` that are empty, do
        not run from 0 to ``N`` or decrease.

    Notes
    -----
    Each replication goes through the band sweep of
    :func:`build_disk_graph_csr` and the per-replication CSR blocks are
    spliced together with the global id offsets applied.  Working one
    replication at a time is deliberate: a single replication's
    candidate/edge arrays fit in cache, whereas one flat pass over all
    ``R`` replications pushes every gather and the final edge sort out
    to main memory and ends up slower than the per-run builder.
    """
    positions = _as_positions(positions)
    radius = check_positive("radius", radius)
    node_offsets = np.asarray(node_offsets, dtype=np.int64)
    n = positions.shape[0]
    if (
        node_offsets.ndim != 1
        or node_offsets.size == 0
        or node_offsets[0] != 0
        or node_offsets[-1] != n
    ):
        raise ValueError("node_offsets must run from 0 to len(positions)")
    if np.any(np.diff(node_offsets) < 0):
        raise ValueError("node_offsets must be non-decreasing")
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)

    indptr = np.zeros(n + 1, dtype=np.int64)
    blocks: list[tuple[int, int, np.ndarray]] = []
    n_edges = 0
    for r in range(len(node_offsets) - 1):
        lo = int(node_offsets[r])
        hi = int(node_offsets[r + 1])
        if hi == lo:
            continue
        rep_indptr, rep_cols = _build_field_csr(positions[lo:hi], radius)
        indptr[lo + 1 : hi + 1] = n_edges + rep_indptr[1:]
        blocks.append((lo, n_edges, rep_cols))
        n_edges += int(rep_indptr[-1])
    # Write each block's globalized columns straight into the final
    # array — a concatenate-then-offset assembly would touch the whole
    # edge set twice.  int32 columns when the global id space fits:
    # every downstream slot resolution gathers these by the million,
    # and the narrower dtype halves that traffic.
    col_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(n_edges, dtype=col_dtype)
    for lo, e0, rep_cols in blocks:
        np.add(rep_cols, lo, dtype=col_dtype, out=indices[e0 : e0 + len(rep_cols)])
    return indptr, indices


class Topology:
    """A sensor network's communication structure.

    Wraps the transmission-range CSR adjacency and, lazily, the
    carrier-sense-range adjacency (Appendix A).  Immutable once built.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates.
    radius:
        Transmission radius ``r``.
    carrier_radius:
        Carrier-sense radius; defaults to ``2 * radius`` when the
        carrier graph is first requested.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        *,
        carrier_radius: float | None = None,
    ):
        self.positions = np.array(positions, dtype=float)
        self.positions.setflags(write=False)
        self.radius = check_positive("radius", radius)
        if carrier_radius is not None and carrier_radius < radius:
            raise ValueError("carrier_radius must be >= radius")
        self._carrier_radius = carrier_radius
        self.indptr, self.indices = build_disk_graph_csr(self.positions, radius)
        self._carrier_csr: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes (including the source)."""
        return self.positions.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected communication links."""
        return int(len(self.indices) // 2)

    @property
    def degrees(self) -> np.ndarray:
        """Neighbor count per node."""
        return np.diff(self.indptr)

    @property
    def mean_degree(self) -> float:
        """Average neighbor count (the empirical counterpart of ``rho``)."""
        return float(self.degrees.mean()) if self.n_nodes else 0.0

    @property
    def carrier_radius(self) -> float:
        """Carrier-sense radius in effect (default ``2 r``)."""
        return self._carrier_radius if self._carrier_radius is not None else 2.0 * self.radius

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor ids of ``node`` (sorted, read-only view)."""
        view = self.indices[self.indptr[node] : self.indptr[node + 1]]
        return view

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self.n_nodes):
            for v in self.neighbors(u):
                if u < int(v):
                    yield u, int(v)

    def carrier_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency at carrier-sense radius (built lazily, cached)."""
        if self._carrier_csr is None:
            self._carrier_csr = build_disk_graph_csr(self.positions, self.carrier_radius)
        return self._carrier_csr

    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the transmission graph is a single connected component."""
        n = self.n_nodes
        if n == 0:
            return True
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())

    def reachable_from(self, node: int) -> np.ndarray:
        """Boolean mask of nodes reachable from ``node`` in the graph."""
        n = self.n_nodes
        seen = np.zeros(n, dtype=bool)
        stack = [node]
        seen[node] = True
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return seen

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` with ``pos`` node attributes."""
        import networkx as nx

        g = nx.Graph()
        for i in range(self.n_nodes):
            g.add_node(i, pos=tuple(self.positions[i]))
        g.add_edges_from(self.iter_edges())
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(n={self.n_nodes}, edges={self.n_edges}, "
            f"r={self.radius}, mean_degree={self.mean_degree:.1f})"
        )


class _StackedRepView(Topology):
    """One replication of a :class:`StackedTopology` as a `Topology`.

    The local ``indptr`` is a cheap re-based slice of the stacked one;
    the local ``indices`` (the full edge list shifted back to local
    ids) is only materialized if something actually reads it — most
    policies never do, and the batched engine resolves slots on the
    stacked structure directly.

    The view holds the stacked edge slice, not the stacked topology:
    a back reference would make each block a reference cycle whose CSR
    arrays outlive the block until the cyclic garbage collector runs.
    """

    def __init__(self, stacked: "StackedTopology", rep: int) -> None:
        lo = int(stacked.node_offsets[rep])
        hi = int(stacked.node_offsets[rep + 1])
        self.positions = stacked.positions[lo:hi]
        self.radius = stacked.radius
        self._carrier_radius = stacked._carrier_radius
        self._carrier_csr = None
        e0 = int(stacked.indptr[lo])
        self.indptr = stacked.indptr[lo : hi + 1] - e0
        self._edges = stacked.indices[e0 : int(stacked.indptr[hi])]
        self._lo = lo
        self._indices_local: np.ndarray | None = None

    @property
    def indices(self) -> np.ndarray:
        if self._indices_local is None:
            self._indices_local = self._edges - self._lo
        return self._indices_local


class StackedTopology:
    """``R`` independent deployments as one CSR structure.

    Node ids are globally renumbered: replication ``r`` owns the
    contiguous block ``[node_offsets[r], node_offsets[r+1])``, so flat
    boolean state arrays and a single bincount-based channel resolution
    serve every replication at once, and per-replication quantities fall
    out of ``searchsorted`` against the offsets.

    Parameters
    ----------
    positions:
        ``(N, 2)`` concatenated coordinates of all replications.
    node_offsets:
        ``(R + 1,)`` cumulative node counts.
    radius:
        Transmission radius ``r`` (shared — one scenario, many draws).
    carrier_radius:
        Carrier-sense radius; defaults to ``2 * radius`` when the
        carrier CSR is first requested.
    """

    def __init__(
        self,
        positions: np.ndarray,
        node_offsets: np.ndarray,
        radius: float,
        *,
        carrier_radius: float | None = None,
    ):
        self.positions = np.asarray(positions, dtype=float)
        self.node_offsets = np.asarray(node_offsets, dtype=np.int64)
        self.radius = check_positive("radius", radius)
        if carrier_radius is not None and carrier_radius < radius:
            raise ValueError("carrier_radius must be >= radius")
        self._carrier_radius = carrier_radius
        self.indptr, self.indices = build_disk_graph_csr_stacked(
            self.positions, self.node_offsets, radius
        )
        self._carrier_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._rep_views: list[Topology | None] = [None] * self.n_reps

    # ------------------------------------------------------------------
    @property
    def n_reps(self) -> int:
        """Number of stacked replications ``R``."""
        return len(self.node_offsets) - 1

    @property
    def n_nodes(self) -> int:
        """Total node count across all replications."""
        return self.positions.shape[0]

    @property
    def carrier_radius(self) -> float:
        """Carrier-sense radius in effect (default ``2 r``)."""
        return (
            self._carrier_radius
            if self._carrier_radius is not None
            else 2.0 * self.radius
        )

    def carrier_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked CSR at carrier-sense radius (built lazily, cached)."""
        if self._carrier_csr is None:
            self._carrier_csr = build_disk_graph_csr_stacked(
                self.positions, self.node_offsets, self.carrier_radius
            )
        return self._carrier_csr

    def rep_slice(self, rep: int) -> tuple[np.ndarray, np.ndarray]:
        """Replication ``rep``'s CSR adjacency in *local* node ids."""
        lo = int(self.node_offsets[rep])
        hi = int(self.node_offsets[rep + 1])
        e0 = int(self.indptr[lo])
        indptr_local = self.indptr[lo : hi + 1] - e0
        indices_local = self.indices[e0 : int(self.indptr[hi])] - lo
        return indptr_local, indices_local

    def rep_topology(self, rep: int) -> Topology:
        """A per-replication :class:`Topology` view (cached, lazy)."""
        cached = self._rep_views[rep]
        if cached is None:
            cached = _StackedRepView(self, rep)
            self._rep_views[rep] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StackedTopology(reps={self.n_reps}, n={self.n_nodes}, "
            f"r={self.radius})"
        )
