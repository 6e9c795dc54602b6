"""Gauss–Legendre quadrature on ``[0, 1]`` for the ring-model integrals.

Equation (4) of the paper integrates a smooth function of the radial
offset ``x`` over each ring of width ``r``; the integrand involves lens
areas (smooth, with mild kinks where circles become tangent) composed
with the slot-collision probability.  Gauss–Legendre with a modest node
count converges quickly for these integrands, and the nodes/weights are
precomputed once per process — ``GaussLegendreRule.unit(n)`` hands every
caller the same read-only instance — so the per-phase cost is a handful
of vectorized evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["GaussLegendreRule"]


@dataclass(frozen=True)
class GaussLegendreRule:
    """An ``n``-point Gauss–Legendre rule mapped to the unit interval.

    Attributes
    ----------
    n:
        Number of nodes.
    nodes:
        Quadrature abscissae in ``(0, 1)``, ascending.
    weights:
        Matching weights; ``weights.sum() == 1`` to machine precision.
    """

    n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def unit(cls, n: int = 96) -> "GaussLegendreRule":
        """The ``n``-point rule on ``[0, 1]``, shared per process.

        The rule is immutable (frozen fields, read-only arrays), so every
        caller asking for the same ``n`` receives the same instance.
        """
        return _unit_rule(check_positive_int("n", n))

    def integrate(self, values: np.ndarray, axis: int = -1) -> np.ndarray | float:
        """Integrate sampled values ``f(nodes)`` over ``[0, 1]``.

        ``values`` must have length ``n`` along ``axis``; any additional
        axes are carried through, so a whole family of integrands can be
        integrated in one vectorized call.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[axis] != self.n:
            raise ValueError(
                f"values has {values.shape[axis]} samples along axis {axis}; "
                f"this rule has {self.n} nodes"
            )
        return np.tensordot(values, self.weights, axes=([axis], [0]))

    def scaled(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for the interval ``[a, b]``."""
        if not b > a:
            raise ValueError(f"empty interval [{a}, {b}]")
        return a + (b - a) * self.nodes, (b - a) * self.weights


@lru_cache(maxsize=None)
def _unit_rule(n: int) -> GaussLegendreRule:
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussLegendreRule(n=n, nodes=nodes, weights=weights)
