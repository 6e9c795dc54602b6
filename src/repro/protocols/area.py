"""Distance-based (area-based) broadcast suppression (extension protocol).

A node relays only if it lies far enough from the transmitter that
informed it: the additional area its own broadcast would cover grows
with that distance, so nearby receivers contribute little and stay
silent.  This is the distance-threshold member of Williams et al.'s
"area based" family, which the paper lists as future analytical work.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import EngineContext, RelayPolicy
from repro.utils.validation import check_probability

__all__ = ["DistanceBasedRelay"]


class DistanceBasedRelay(RelayPolicy):
    """Relay iff the informing sender is at least ``threshold * r`` away.

    Parameters
    ----------
    threshold:
        Minimum sender distance as a fraction of the transmission
        radius (0 relays always, values near 1 relay only from the
        rim of the sender's coverage).
    p:
        Additional thinning probability applied on top of the distance
        rule (1.0 gives the pure scheme).

    Notes
    -----
    Nodes whose first reception has an unknown sender (``-1``; possible
    under CFM tie-breaking) conservatively relay: the scheme fails
    open rather than silently partitioning the broadcast.
    """

    name = "distance"

    def __init__(self, threshold: float = 0.5, p: float = 1.0):
        self.threshold = check_probability("threshold", threshold)
        self.p = check_probability("p", p)

    def schedule(
        self,
        new_nodes: np.ndarray,
        first_senders: np.ndarray,
        rng: np.random.Generator,
        ctx: EngineContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(new_nodes)
        pos = ctx.positions
        senders = np.asarray(first_senders)
        known = senders >= 0
        dist = np.full(n, np.inf)
        if np.any(known):
            delta = pos[np.asarray(new_nodes)[known]] - pos[senders[known]]
            dist[known] = np.hypot(delta[:, 0], delta[:, 1])
        will = dist >= self.threshold * ctx.radius
        if self.p < 1.0:
            will &= rng.random(n) < self.p
        slots = self.random_slots(n, rng, ctx)
        return will, slots

    def __repr__(self) -> str:
        return f"DistanceBasedRelay(threshold={self.threshold}, p={self.p})"
