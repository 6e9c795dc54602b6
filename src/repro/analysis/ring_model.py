"""The ring-based phase recursion of Sec. 4.2.2 (Eq. 3 and Eq. 4).

The field is partitioned into ``P`` concentric rings of width ``r``.
The model tracks ``n_j^i``, the expected number of nodes in ring ``j``
that first receive the packet during phase ``T_i``:

* phase ``T_1``: only the source transmits, so every node in ring 1 is
  informed — ``n_1^1 = delta * pi * r^2 = rho``;
* phase ``T_i``: a still-uninformed node ``u`` in ring ``j`` at radial
  offset ``x`` sees ``g(x)`` freshly informed neighbors (Eq. 3), each of
  which broadcasts with probability ``p`` into one of ``s`` random
  slots; ``u`` is informed with probability ``mu(g(x) * p, s)``, and
  Eq. (4) integrates this over the ring's uninformed population.

The radial integral is evaluated with a fixed Gauss–Legendre rule.
Setup is shared per process: the rule, each ring's ``A(x, k)`` areas
and radial weights at the quadrature nodes (keyed by ``(P, r,
quad_nodes)``) and the ``mu`` table are built once and handed out
read-only, so a new :class:`RingModel` costs almost nothing.  Each phase
is one array step over every active probability lane and every ring
that can still take arrivals: the Eq. (3) weights are stacked as
``(P, 3, quad_nodes)``, with zero weight for a neighbour ring outside
the field.  :meth:`RingModel.run` is a batch of one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.trace import BroadcastTrace
from repro.collision.slots import SlotCollisionTable
from repro.errors import ConfigurationError
from repro.geometry.rings import RingPartition
from repro.utils.quadrature import GaussLegendreRule
from repro.utils.validation import check_positive, check_positive_int, check_probability

__all__ = ["RingModel"]

#: Probability lanes per array step: keeps the step's temporaries of a
#: large sweep at ``(256, P, quad_nodes)``.
_LANE_BLOCK = 256


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _ring_window(n_rings: int, half: int) -> np.ndarray:
    """``(P, 2*half + 1)`` 0-based indices of rings ``j-half .. j+half``.

    Indices outside the field are clipped to a real ring; callers give
    those window slots zero weight.
    """
    rings = np.arange(n_rings)[:, None] + np.arange(-half, half + 1)[None, :]
    window = np.clip(rings, 0, n_rings - 1)
    _read_only(window)
    return window


@lru_cache(maxsize=None)
def _ring_geometry(
    partition: RingPartition, quad_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ring geometry at the quadrature nodes, built once per process.

    Returns ``(ring_areas, radial_weight, window, weights)``:
    ``radial_weight[j-1]`` is ``2 pi r (r (j-1) + x)`` times the
    quadrature weights (the extra factor ``r`` maps the x-integral from
    ``[0, 1]`` to ``[0, r]``); ``weights[j-1, o]`` is the Eq. (3) weight
    ``A(x, k) / area(k)`` of ring ``k = j-1+o`` over ``window[j-1, o]``,
    zero where ring ``k`` lies outside the field.
    """
    P = partition.n_rings
    r = partition.radius
    rule = GaussLegendreRule.unit(quad_nodes)
    x = rule.nodes * r
    ring_areas = partition.ring_areas
    radial_weight = np.stack(
        [2.0 * np.pi * r * (r * (j - 1) + x) * rule.weights for j in range(1, P + 1)]
    )
    weights = np.zeros((P, 3, quad_nodes))
    for j in range(1, P + 1):
        areas = partition.transmission_areas(j, x)
        for offset, k in enumerate((j - 1, j, j + 1)):
            if 1 <= k <= P:
                weights[j - 1, offset] = areas[:, offset] / ring_areas[k - 1]
    _read_only(ring_areas, radial_weight, weights)
    return ring_areas, radial_weight, _ring_window(P, 1), weights


def _as_index(idx: np.ndarray) -> slice | np.ndarray:
    """Non-empty sorted ``idx`` as a slice when it is one run of consecutive indices.

    Indexing with the slice reads views instead of gathered copies; it
    selects the same entries, so every result keeps its bits.
    """
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _window_sum(
    prev: np.ndarray,
    rings: slice | np.ndarray,
    window: np.ndarray,
    weights: np.ndarray,
    denominators: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. (3)-style neighbour sums for every ring ``j`` of ``rings``.

    ``sum_o prev[..., window[j, o]] * weights[j, o]``: ``prev`` has shape
    ``(..., P)``, the result ``(..., len(rings), quad_nodes)``.  With
    ``denominators`` each term is ``(prev * weight) / denominator``.
    Terms are added in window order onto zeros, and a window slot outside
    the field has weight 0, so it adds an exact ``+0.0``: every ring gets
    the bits of a loop over its existing neighbour rings.
    """
    near = prev[..., window[rings]]
    w = weights[rings]
    d = None if denominators is None else denominators[rings]
    total = np.zeros(near.shape[:-1] + w.shape[-1:])
    for o in range(w.shape[1]):
        term = near[..., o, None] * w[:, o]
        if d is not None:
            term /= d[:, o, None]
        total += term
    return total


class RingModel:
    """Analytical model of PB_CAM on a uniform disk deployment.

    Parameters
    ----------
    config:
        Model parameters; see :class:`repro.analysis.config.AnalysisConfig`.

    Notes
    -----
    Instances are immutable after construction and safe to reuse across
    many :meth:`run` calls.  Their geometry and ``mu`` tables are
    process-wide read-only arrays shared with every other model of the
    same shape.
    """

    #: Arrivals per phase below this fraction of the node population are
    #: treated as termination of the broadcast wave.
    DEFAULT_TOL = 1e-9

    def __init__(self, config: AnalysisConfig):
        self.config = config
        self.partition = RingPartition(config.n_rings, config.radius)
        self._mu_table = SlotCollisionTable()
        (
            self._ring_areas,
            self._radial_weight,
            self._window,
            self._weights,
        ) = _ring_geometry(self.partition, config.quad_nodes)

    # ------------------------------------------------------------------
    def informed_neighbors(self, j: int, prev_new: np.ndarray) -> np.ndarray:
        """Eq. (3): expected freshly-informed neighbors ``g(x)``.

        Parameters
        ----------
        j:
            Ring of the receiving node (1-based).
        prev_new:
            ``n_k^{i-1}`` per ring (length ``n_rings``), or a batch of
            such vectors with any leading axes (``(..., n_rings)``).

        Returns
        -------
        numpy.ndarray
            ``g`` evaluated at the quadrature nodes of ring ``j``; shape
            ``(..., quad_nodes)`` with ``prev_new``'s leading axes.
        """
        prev_new = np.asarray(prev_new, dtype=float)
        g = _window_sum(prev_new, slice(j - 1, j), self._window, self._weights)
        return g[..., 0, :]

    def ring_integral(self, j: int, values: np.ndarray) -> float:
        """Integrate node-pointwise ``values`` over ring ``j``.

        ``values`` must be sampled at this model's quadrature nodes; the
        result is ``∫∫_ring values dA`` — multiply by a node density to
        turn a per-node probability into an expected node count.
        """
        return float(np.dot(self._radial_weight[j - 1], values))

    def _reception_probability(
        self, p: np.ndarray, prev_new: np.ndarray, rings: slice | np.ndarray
    ) -> np.ndarray:
        """``mu(g(x) * p, s)`` at the quadrature nodes of ``rings``.

        ``prev_new`` is ``(..., n_rings)``, ``rings`` selects 0-based
        ring indices and ``p`` broadcasts against the result, shape
        ``(..., len(rings), quad_nodes)`` (the recursion passes one
        ``(lanes, 1, 1)`` column of probabilities).  Split out so the
        carrier-sense subclass can override just the collision law
        while inheriting the phase recursion.
        """
        g = _window_sum(prev_new, rings, self._window, self._weights)
        cfg = self.config
        return self._mu_table.mu_real(g * p, cfg.slots, method=cfg.mu_method)

    def _validated_initial(self, initial_informed: np.ndarray | None) -> np.ndarray:
        """Phase-1 arrivals per ring, validated against the ring populations."""
        cfg = self.config
        P = cfg.n_rings
        if initial_informed is None:
            new = np.zeros(P)
            new[0] = cfg.rho  # T_1: the source informs all of ring 1
            return new
        new = np.asarray(initial_informed, dtype=float).copy()
        if new.shape != (P,):
            raise ValueError(f"initial_informed must have shape ({P},)")
        if np.any(new < 0):
            raise ValueError("initial_informed entries must be non-negative")
        caps = cfg.delta * self._ring_areas
        if np.any(new > caps * (1 + 1e-9)):
            raise ValueError(
                "initial_informed exceeds a ring's expected population"
            )
        return new

    def _phase_step(
        self, p: np.ndarray, new: np.ndarray, capacity: np.ndarray
    ) -> np.ndarray:
        """Eq. (4) for one block of lanes: next-phase arrivals ``(lanes, P)``.

        ``p`` holds the lanes' probabilities, ``new`` their last-phase
        arrivals and ``capacity`` their rings' uninformed populations.
        Only rings where some lane still has capacity are evaluated, and
        a lane-ring pair without capacity gets no arrivals.
        """
        out = np.zeros(new.shape)
        live = capacity > 0
        live_rings = np.flatnonzero(live.any(axis=0))
        if live_rings.size == 0:
            return out
        rings = _as_index(live_rings)
        mu = self._reception_probability(p[:, None, None], new, rings)
        # Multiply-then-pairwise-sum (not BLAS dot): numpy reduces each
        # quadrature row the same way whatever the batch shape, which
        # keeps every lane's bits independent of its batch.
        integral = (mu * self._radial_weight[rings]).sum(axis=-1)
        cap = capacity[:, rings]
        uninformed_density = cap / self._ring_areas[rings]
        out[:, rings] = np.where(
            live[:, rings], np.minimum(integral * uninformed_density, cap), 0.0
        )
        return out

    # ------------------------------------------------------------------
    def run(
        self,
        p: float,
        *,
        max_phases: int = 200,
        tol: float | None = None,
        initial_informed: np.ndarray | None = None,
        initial_broadcasts: float = 1.0,
    ) -> BroadcastTrace:
        """Run the phase recursion and return the resulting trace.

        A batch of one: after validating ``p`` this is
        ``run_batch([p], ...)[0]``.

        Parameters
        ----------
        p:
            Broadcast probability (``p = 1`` is simple flooding in CAM).
        max_phases:
            Hard phase budget.  Metrics with a latency constraint only
            need that many phases; energy metrics should leave this high
            enough for the wave to die out (the recursion stops early on
            its own, see ``tol``).
        tol:
            Termination threshold on per-phase arrivals, as a fraction
            of the node population.  Defaults to :attr:`DEFAULT_TOL`.
        initial_informed:
            Expected nodes informed during phase 1, per ring.  Defaults
            to the paper's setting — the center source fills ring 1
            (``[rho, 0, ..., 0]``).  Any radially symmetric seeding is
            valid (e.g. a query injected by nodes of an outer ring);
            entries may not exceed the ring populations.
        initial_broadcasts:
            Transmissions attributed to phase 1 (the paper's lone
            source broadcast = 1).

        Returns
        -------
        BroadcastTrace
        """
        p = check_probability("p", p, allow_zero=True)
        return self.run_batch(
            [p],
            max_phases=max_phases,
            tol=tol,
            initial_informed=initial_informed,
            initial_broadcasts=initial_broadcasts,
        )[0]

    # ------------------------------------------------------------------
    def run_batch(
        self,
        p_grid: np.ndarray,
        *,
        max_phases: int = 200,
        tol: float | None = None,
        initial_informed: np.ndarray | None = None,
        initial_broadcasts: float = 1.0,
    ) -> list[BroadcastTrace]:
        """Run the phase recursion for a whole probability grid at once.

        Every probability of ``p_grid`` is a lane of one recursion: each
        phase is one array step over the active lanes (in blocks of 256)
        and the rings that can still take arrivals.  Probabilities whose
        wave dies early are frozen (their lanes stop contributing work)
        while the rest keep recursing, so each returned trace has
        exactly the phase count its :meth:`run` would have produced.

        Parameters
        ----------
        p_grid:
            1-D array of broadcast probabilities.
        max_phases, tol, initial_informed, initial_broadcasts:
            As in :meth:`run`, applied to every probability.

        Returns
        -------
        list[BroadcastTrace]
            One trace per entry of ``p_grid``, in input order; each is
            bitwise identical to the corresponding ``run(p)`` trace and
            independent of the batch it ran in (every lane's arithmetic
            is elementwise or a per-row reduction).
        """
        p_vec = np.asarray(p_grid, dtype=float)
        if p_vec.ndim != 1 or p_vec.size == 0:
            raise ConfigurationError("p_grid must be a non-empty 1-D array")
        if np.any((p_vec < 0.0) | (p_vec > 1.0)) or not np.all(np.isfinite(p_vec)):
            raise ConfigurationError("all probabilities must lie in [0, 1]")
        max_phases = check_positive_int("max_phases", max_phases)
        tol_abs = (self.DEFAULT_TOL if tol is None else check_positive("tol", tol)) * (
            self.config.n_nodes
        )
        initial = self._validated_initial(initial_informed)
        check_positive("initial_broadcasts", initial_broadcasts, allow_zero=True)

        cfg = self.config
        P = cfg.n_rings
        B = p_vec.size
        ring_caps = cfg.delta * self._ring_areas

        new = np.tile(initial, (B, 1))
        cum = new.copy()
        history_new = [new.copy()]
        history_bcast = [np.full(B, float(initial_broadcasts))]
        active = np.ones(B, dtype=bool)
        phases = np.ones(B, dtype=np.int64)
        arrivals = new.sum(axis=1)

        for _ in range(2, max_phases + 1):
            lanes = np.flatnonzero(active)
            if lanes.size == 0:
                break
            nxt = np.zeros((B, P))
            for start in range(0, lanes.size, _LANE_BLOCK):
                block = _as_index(lanes[start : start + _LANE_BLOCK])
                nxt[block] = self._phase_step(
                    p_vec[block], new[block], ring_caps - cum[block]
                )
            # Last phase's arrivals broadcast now.  Frozen lanes broadcast
            # nothing; their entries are truncated away below, so the zero
            # is only a placeholder.
            bcast = np.where(active, p_vec * arrivals, 0.0)
            history_bcast.append(bcast)
            history_new.append(nxt)
            cum += nxt
            new = nxt
            phases += active
            arrivals = new.sum(axis=1)
            active &= arrivals >= tol_abs

        new_arr = np.stack(history_new)  # (T, B, P)
        bc_arr = np.stack(history_bcast)  # (T, B)
        return [
            BroadcastTrace(
                config=cfg,
                p=float(p_vec[b]),
                new_by_phase_ring=new_arr[: phases[b], b].copy(),
                broadcasts_by_phase=bc_arr[: phases[b], b].copy(),
            )
            for b in range(B)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return f"RingModel(P={c.n_rings}, rho={c.rho}, s={c.slots}, mu={c.mu_method})"
