"""Appendix A: the ring recursion under a carrier-sense collision model.

In the carrier-sense variant, a transmission to ``u`` also fails when
any node within carrier-sense range of ``u`` (but outside transmission
range) transmits in the same slot.  The recursion is unchanged except
that the per-node reception probability becomes
``mu'(g(x) * p, h(x) * p, s)`` (Eq. A.3), where ``h(x)`` counts freshly
informed nodes in the carrier-sense annulus (Eq. A.2).

Note: the paper prints the integrand of Eq. (A.3) as
``mu'(g(x), h(x), s)``; consistency with Eq. (4) — only the nodes that
*decide* to broadcast contend — requires both arguments to be scaled by
``p``, which is what we implement.

The carrier window's ``B(x, k)`` areas are process-wide read-only
arrays like the plain model's geometry, and the recursion is the plain
model's one array step per phase: ``h`` is built from the ``2w + 1``
window with zero-padded areas over unit denominators, keeping the
``(prev * area) / ring_area`` order of Eq. (A.2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.ring_model import RingModel, _read_only, _ring_window, _window_sum
from repro.collision.carrier import CarrierCollisionTable
from repro.geometry.rings import RingPartition
from repro.utils.quadrature import GaussLegendreRule

__all__ = ["CarrierRingModel"]


@lru_cache(maxsize=None)
def _carrier_geometry(
    partition: RingPartition, quad_nodes: int, carrier_radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Eq. (A.2) geometry at the quadrature nodes, built once per process.

    Returns ``(window, areas, denominators)`` over the ``2w + 1`` rings
    of each ring's carrier window: ``areas[j-1, o]`` is ``B(x, k)`` and
    ``denominators[j-1, o]`` the area of ring ``k``; a ring outside the
    field has zero area over a unit denominator.
    """
    P = partition.n_rings
    x = GaussLegendreRule.unit(quad_nodes).nodes * partition.radius
    ring_areas = partition.ring_areas
    width = len(partition.carrier_window(1, carrier_radius))
    areas = np.zeros((P, width, quad_nodes))
    denominators = np.ones((P, width))
    for j in range(1, P + 1):
        b = partition.carrier_areas(j, x, carrier_radius)
        for offset, k in enumerate(partition.carrier_window(j, carrier_radius)):
            if 1 <= k <= P:
                areas[j - 1, offset] = b[:, offset]
                denominators[j - 1, offset] = ring_areas[k - 1]
    _read_only(areas, denominators)
    return _ring_window(P, width // 2), areas, denominators


class CarrierRingModel(RingModel):
    """Ring model with carrier-sense collisions (paper Appendix A).

    The carrier-sense radius is ``config.carrier_factor * config.radius``
    (the paper's "typically twice the transmission range" is the default
    ``carrier_factor = 2``).
    """

    def __init__(self, config: AnalysisConfig, *, exact_limit: int = 96):
        super().__init__(config)
        self._carrier_table = CarrierCollisionTable(exact_limit=exact_limit)
        (
            self._carrier_window,
            self._carrier_areas,
            self._carrier_denominators,
        ) = _carrier_geometry(self.partition, config.quad_nodes, config.carrier_radius)

    def carrier_neighbors(self, j: int, prev_new: np.ndarray) -> np.ndarray:
        """Eq. (A.2): expected freshly-informed nodes ``h(x)`` in the
        carrier-sense annulus of a node in ring ``j``.

        Accepts the same leading batch axes as
        :meth:`~repro.analysis.ring_model.RingModel.informed_neighbors`.
        """
        prev_new = np.asarray(prev_new, dtype=float)
        return self._carrier_sum(prev_new, slice(j - 1, j))[..., 0, :]

    def _carrier_sum(
        self, prev_new: np.ndarray, rings: slice | np.ndarray
    ) -> np.ndarray:
        return _window_sum(
            prev_new,
            rings,
            self._carrier_window,
            self._carrier_areas,
            self._carrier_denominators,
        )

    def _reception_probability(
        self, p: np.ndarray, prev_new: np.ndarray, rings: slice | np.ndarray
    ) -> np.ndarray:
        g = _window_sum(prev_new, rings, self._window, self._weights)
        h = self._carrier_sum(prev_new, rings)
        return self._carrier_table.mu_real(g * p, h * p, self.config.slots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"CarrierRingModel(P={c.n_rings}, rho={c.rho}, s={c.slots}, "
            f"carrier={c.carrier_factor}r)"
        )
