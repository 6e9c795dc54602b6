"""Probability-based broadcasting and simple flooding (paper Sec. 4).

``ProbabilisticRelay(p)`` is the paper's scheme: after its first
reception, a node relays exactly once with probability ``p``, in a
uniformly random slot of the next time phase.  ``SimpleFlooding`` is
the ``p = 1`` special case the paper treats as the baseline.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import EngineContext, RelayPolicy
from repro.utils.validation import check_probability

__all__ = ["ProbabilisticRelay", "SimpleFlooding"]


class ProbabilisticRelay(RelayPolicy):
    """Relay once with probability ``p`` in a random next-phase slot."""

    name = "pb"

    def __init__(self, p: float):
        self.p = check_probability("p", p)

    def schedule(
        self,
        new_nodes: np.ndarray,
        first_senders: np.ndarray,
        rng: np.random.Generator,
        ctx: EngineContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(new_nodes)
        will = rng.random(n) < self.p
        slots = self.random_slots(n, rng, ctx)
        return will, slots

    def __repr__(self) -> str:
        return f"ProbabilisticRelay(p={self.p})"


class SimpleFlooding(ProbabilisticRelay):
    """Every informed node relays exactly once (``p = 1``)."""

    name = "flooding"

    def __init__(self) -> None:
        super().__init__(1.0)

    def __repr__(self) -> str:
        return "SimpleFlooding()"
