"""Unit-disk communication graphs: CSR adjacency and block band index.

The communication graph of assumption 2 connects every pair of nodes
within transmission radius ``r``.  Both structures here rest on one
sort, a band sweep: points ordered by (horizontal band of height
``r/2``, ``x``), so a point's possible partners in a band within reach
are one contiguous run of the sorted order, which ``searchsorted`` finds
on an ``x``-window narrowed to ``sqrt(r^2 - gap^2)`` for that band's
vertical gap.  All distance work happens on flat candidate-pair arrays
(~1.3 candidates per edge); there is no Python loop over points or
cells.

* :func:`build_disk_graph_csr` turns one field's sweep into flat CSR
  arrays (``indptr``/``indices``).  :class:`Topology` wraps them, and
  builds the ``carrier_radius`` graph of Appendix A on demand (the
  carrier graph includes the transmission graph; CAM code subtracts as
  needed).  The DES, TDMA, convergecast and the neighbor-knowledge
  policy read it.
* :class:`BlockIndex` keeps the sort itself for a block of replications
  that the vectorized engine advances together, and answers each slot
  with one query over that slot's transmitters: their ``(receiver,
  sender)`` pairs, the multiset a CSR gather would yield.  No edge list
  is ever built, so a slot's graph work grows with its transmissions.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "BlockIndex",
    "Topology",
    "build_disk_graph_csr",
    "gather_neighbors",
]


#: Band height as a fraction of the search reach.  Bands of half a
#: radius put a point's partners in its own band and the next two, and
#: narrowing each band's x-window to its vertical gap leaves ~1.3
#: candidate pairs per edge.
_BAND = 0.5

#: Padding of the search reach, relative to the radius plus the largest
#: coordinate and sort-key magnitudes.  It dwarfs the few-ulp rounding of
#: the shifted coordinates, band floors, sort keys and window bounds, so
#: every pair the edge predicate accepts is a candidate; it only adds
#: candidates, never edges.
_SLACK = 1e-12

#: Widest cell of a block index's window lookup, relative to the radius.
_CELL = 0.125

#: Candidate pairs a block query expands at once.  Dense slots (flooding
#: a rho=140 block) are cut into transmitter runs of about this many
#: candidates: the transient arrays stay near 4 MB, small enough to stay
#: in cache between passes (a 32-field flooding block's queries ran
#: ~12 % faster than at 4x the size).
_CHUNK = 1 << 16


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


def gather_neighbors(
    tx: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(receivers, senders)`` pairs of all transmitters' CSR slices.

    One fancy index gathers every transmitter's neighbor slice;
    ``receivers[k]`` hears ``senders[k]``.

    The flat positions are built as a cumsum of unit steps with a jump
    to the next slice start at each boundary (cheaper than
    ``repeat`` + ``arange``); back-to-back slices (e.g. flooding where
    every node transmits) collapse to a single contiguous view.
    """
    starts = indptr[tx]
    ends = indptr[tx + 1]
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    nz = lengths > 0
    s_nz = starts[nz]
    e_nz = ends[nz]
    if np.array_equal(s_nz[1:], e_nz[:-1]):
        receivers = indices[s_nz[0] : e_nz[-1]]
    else:
        bounds = np.cumsum(lengths[nz])
        steps = np.ones(total, dtype=np.int64)
        steps[0] = s_nz[0]
        steps[bounds[:-1]] = s_nz[1:] - e_nz[:-1] + 1
        receivers = indices[np.cumsum(steps)]
    senders = np.repeat(tx, lengths)
    return receivers, senders


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

    def neighbor_pairs(
        self, tx: np.ndarray, *, carrier: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(receivers, senders)``: every neighbor of each node in ``tx``.

        By CSR gather (:func:`gather_neighbors`); ``carrier`` gathers
        from the carrier-radius graph instead.
        """
        indptr, indices = self.carrier_csr() if carrier else (self.indptr, self.indices)
        return gather_neighbors(tx, indptr, indices)

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


class BlockIndex:
    """A block of deployments as one band index, queried per slot.

    The vectorized engine advances ``R`` replications together and
    resolves each slot from the ``(receiver, sender)`` pairs of that
    slot's transmitters.  This index answers that with one vectorized
    query and never builds an edge list: the points keep the band
    sweep's sort, and every transmitter's partners in each band within
    reach lie in one window of it.  Graph work per slot therefore grows
    with the slot's transmissions, not with the block's edges.

    Node ids are global: replication ``r`` owns the contiguous block
    ``[node_offsets[r], node_offsets[r+1])``, so flat boolean state and
    one bincount per slot serve every replication at once.  Each
    replication's bands are numbered past the previous one's, with
    enough empty bands between them that no window reaches another
    field; pairs never cross replications.

    Parameters
    ----------
    positions:
        ``(N, 2)`` coordinates of all replications concatenated.
    node_offsets:
        ``(R + 1,)`` cumulative node counts, from 0 to ``N``; a
        replication may be empty.
    radius:
        Transmission radius ``r`` (shared — one scenario, many draws).
    carrier_radius:
        Carrier-sense radius; defaults to ``2 * radius``.

    Attributes
    ----------
    pairs:
        Neighbor pairs the queries have returned so far.

    Raises
    ------
    ValueError
        On non-finite positions, ``carrier_radius < radius``, or
        ``node_offsets`` that are empty, do not run from 0 to ``N`` or
        decrease.

    Notes
    -----
    Sort keys are ``band * width + x`` as in :func:`build_disk_graph_csr`,
    in units of *cells*: each band's ``width`` is cut into a power of two
    of cells at most ``radius / 8`` wide (coarser where that would make
    more than ~16 cells per point), and a table of each cell's first
    sorted position turns a window's float bounds into positions with
    two gathers instead of two binary searches.  A window is thus widened
    to whole cells (a few extra candidates, which the predicate drops).
    """

    def __init__(
        self,
        positions: np.ndarray,
        node_offsets: np.ndarray,
        radius: float,
        *,
        carrier_radius: float | None = None,
    ):
        self.positions = _as_positions(positions)
        self.node_offsets = np.asarray(node_offsets, dtype=np.int64)
        self.radius = check_positive("radius", radius)
        if carrier_radius is not None and carrier_radius < radius:
            raise ValueError("carrier_radius must be >= radius")
        self._carrier_radius = carrier_radius
        n = self.n_nodes
        offsets = self.node_offsets
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != n:
            raise ValueError("node_offsets must run from 0 to len(positions)")
        counts = np.diff(offsets)
        if np.any(counts < 0):
            raise ValueError("node_offsets must be non-decreasing")
        self.pairs = 0
        self._windows: dict[bool, tuple[float, np.ndarray, np.ndarray, np.ndarray]] = {}
        if n == 0:
            return

        # Each replication is swept from its own lower-left corner.
        full = counts > 0
        lo = np.minimum.reduceat(self.positions, offsets[:-1][full], axis=0)
        hi = np.maximum.reduceat(self.positions, offsets[:-1][full], axis=0)
        extent = hi - lo
        far = self.carrier_radius
        # A power of two, so band * width is exact, and wider than an
        # x-extent plus two of the widest query's reaches, so no window
        # aimed at one band reaches the next.
        width = 2.0 ** math.ceil(math.log2(2.0 * float(extent[:, 0].max()) + 4.0 * far))
        # The slack must cover rounding at the keys' magnitude, which
        # grows with the block.  Bands of height radius/2 bound it: the
        # final bands are no lower, so there are no more of them.
        h_min = _BAND * radius
        gap_max = math.ceil(far / h_min)
        n_bands_max = float(np.floor(extent[:, 1] / h_min).sum()) + (len(extent) + 1) * (
            gap_max + 2
        )
        coord = float(max(np.abs(lo).max(), np.abs(hi).max()))
        self._slack = _SLACK * (far + coord + n_bands_max * width)
        self._band = h = _BAND * (radius + self._slack)
        # A query reaches ceil(reach / h) bands up or down; that many
        # empty bands between fields keep every window inside its own,
        # and as many below the first keep every window bound positive.
        gap = math.ceil((far + self._slack) / h)
        n_bands = np.floor(extent[:, 1] / h) + (1 + gap)
        first_band = np.cumsum(n_bands) - n_bands + (1 + gap)
        n_bands_total = int(first_band[-1] + n_bands[-1] + 1)
        # Cells at most radius * _CELL wide, but no more than ~16 per
        # point, so a large sparse field keeps a small table.  At least
        # two per band: points fill less than the left half of a band,
        # so a window widened to whole cells ends in the empty half of
        # a neighboring band and never reaches another field.
        fine = math.ceil(math.log2(width / (_CELL * radius)))
        sparse = math.floor(math.log2(max(16.0 * n / n_bands_total, 2.0)))
        self._cells = cells = 2 ** min(fine, sparse)
        self._scale = scale = cells / width
        rep = np.repeat(np.arange(len(extent)), counts[full])
        xs = self.positions[:, 0] - lo[rep, 0]
        ys = self.positions[:, 1] - lo[rep, 1]
        band = np.floor(ys / h)
        keys = (band + first_band[rep]) * width + xs
        order = np.argsort(keys)
        self._order = order
        self._rank = np.empty(n, dtype=np.intp)
        self._rank[order] = np.arange(n)
        self._keys = keys[order] * scale
        self._x = self.positions[order, 0]
        self._y = self.positions[order, 1]
        # Each point's height above its band's floor, in cells.
        ys -= band * h
        self._rise = ys[order] * scale
        # cell_start[c] is the first sorted position in cell c or later.
        n_cells = n_bands_total * cells
        self._cell_start = np.zeros(n_cells + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(self._keys.astype(np.intp), minlength=n_cells),
            out=self._cell_start[1:],
        )

    # ------------------------------------------------------------------
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

    def _window_table(
        self, carrier: bool
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Per-band-offset window terms of one query radius, in cells.

        For band offsets ``d = -k..k`` (``k`` bands reach the radius):
        the vertical gap to band ``b + d`` is ``base[d] + sign[d] *
        rise`` less the slack, ``rise`` being the point's height above
        its band's floor, and ``shift[d]`` moves a key into that band.
        Returns ``(reach**2, base, sign, shift)``; cached per radius.
        """
        table = self._windows.get(carrier)
        if table is None:
            reach = (self.carrier_radius if carrier else self.radius) + self._slack
            k = math.ceil(reach / self._band)
            d = np.arange(-k, k + 1, dtype=float)
            base = np.where(d > 0, d, np.maximum(-d - 1.0, 0.0)) * self._band - self._slack
            table = (
                (reach * self._scale) ** 2,
                base * self._scale,
                -np.sign(d),
                d * self._cells,
            )
            self._windows[carrier] = table
        return table

    def neighbor_pairs(
        self, tx: np.ndarray, *, carrier: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(receivers, senders)``: every neighbor of each node in ``tx``.

        The multiset equals the CSR gather of
        :func:`build_disk_graph_csr` over each replication (pairs with
        ``dx*dx + dy*dy <= r*r``, no self-pairs), in global ids; the
        order differs.  ``carrier`` queries at the carrier radius.

        Transmitters are visited in index order, so the windows sweep
        the sorted points forward.  Each transmitter contributes one
        window per band within reach, its own band's split at the
        transmitter so it never meets itself; the windows expand into
        flat candidate pairs and the float predicate keeps the
        neighbors, a bounded run of transmitters at a time.
        """
        tx = np.asarray(tx)
        if tx.size == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        reach2, base, sign, shift = self._window_table(carrier)
        i = np.sort(self._rank[tx])
        # Window half-widths sqrt(reach^2 - gap^2), one column per band.
        w = self._rise[i, None] * sign
        w += base
        np.maximum(w, 0.0, out=w)
        w *= w
        np.subtract(reach2, w, out=w)
        np.maximum(w, 0.0, out=w)
        np.sqrt(w, out=w)
        center = self._keys[i, None] + shift
        k = len(shift) // 2
        first = np.empty((len(i), len(shift) + 1), dtype=np.intp)
        last = np.empty_like(first)
        # Keys are positive, so truncation is the floor.
        first[:, :-1] = self._cell_start.take((center - w).astype(np.intp))
        last[:, :-1] = self._cell_start.take((center + w).astype(np.intp) + 1)
        # The own band's window, split around the transmitter.
        last[:, -1] = last[:, k]
        first[:, -1] = i + 1
        last[:, k] = i
        runs = last - first
        per_tx = runs.sum(axis=1)
        r2 = (self.carrier_radius if carrier else self.radius) ** 2
        bounds = np.cumsum(per_tx)
        if bounds[-1] <= _CHUNK:
            receivers, senders = self._expand(i, first, runs, per_tx, r2)
        else:
            parts = []
            lo = 0
            while lo < len(i):
                done = bounds[lo - 1] if lo else 0
                hi = max(int(np.searchsorted(bounds, done + _CHUNK, side="right")), lo + 1)
                parts.append(
                    self._expand(i[lo:hi], first[lo:hi], runs[lo:hi], per_tx[lo:hi], r2)
                )
                lo = hi
            receivers = np.concatenate([p[0] for p in parts])
            senders = np.concatenate([p[1] for p in parts])
        self.pairs += len(receivers)
        return receivers, senders

    def _expand(
        self,
        i: np.ndarray,
        first: np.ndarray,
        runs: np.ndarray,
        per_tx: np.ndarray,
        r2: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The neighbor pairs inside windows ``[first, first + runs)``.

        ``first`` and ``runs`` hold one row per transmitter ``i`` (sorted
        positions) and one column per window.
        """
        runs = runs.ravel()
        ends = np.cumsum(runs)
        # b-side sorted positions: the windows concatenated.
        b = np.arange(ends[-1])
        b += np.repeat(first.ravel() - (ends - runs), runs)
        d2 = np.repeat(self._x.take(i), per_tx)
        d2 -= self._x.take(b)
        dy = np.repeat(self._y.take(i), per_tx)
        dy -= self._y.take(b)
        d2 *= d2
        dy *= dy
        d2 += dy
        hit = np.flatnonzero(d2 <= r2)
        del d2, dy
        order = self._order
        return order.take(b.take(hit)), np.repeat(order.take(i), per_tx).take(hit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        reps = len(self.node_offsets) - 1
        return f"BlockIndex(reps={reps}, n={self.n_nodes}, r={self.radius})"
