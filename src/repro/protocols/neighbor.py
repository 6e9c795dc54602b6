"""Neighbor-knowledge broadcast suppression (extension protocol).

Assumption 3 gives every node the ID list of its neighbors.  If nodes
additionally exchange those lists one hop (standard in the
neighbor-knowledge family, e.g. the Scalable Broadcast Algorithm), a
receiver can reason about coverage:

* at scheduling time it relays only if its own broadcast would reach
  someone the informing sender's broadcast did not, and
* while waiting for its slot it keeps listening — every additional
  overheard broadcast extends the known-covered set — and cancels at
  the slot if its whole neighborhood is already covered.

The second rule is what makes the scheme effective in dense fields; it
uses the engines' overheard-sender tracking
(:attr:`~repro.protocols.base.RelayPolicy.needs_overheard`).
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import EngineContext, RelayPolicy
from repro.utils.validation import check_probability

__all__ = ["NeighborKnowledgeRelay"]


class NeighborKnowledgeRelay(RelayPolicy):
    """Relay iff some own neighbor is not covered by overheard broadcasts.

    Parameters
    ----------
    p:
        Additional thinning probability on top of the coverage rule.

    Notes
    -----
    Receivers whose informing sender is unknown relay (fail open).  The
    coverage computation is exact two-hop set arithmetic, not an
    approximation.
    """

    name = "neighbor"
    needs_overheard = True

    def __init__(self, p: float = 1.0):
        self.p = check_probability("p", p)

    def _uncovered_remains(self, node: int, senders, topo) -> bool:
        mine = topo.neighbors(int(node))
        covered: np.ndarray | None = None
        for s in senders:
            s = int(s)
            if s < 0:
                continue
            block = np.concatenate([topo.neighbors(s), [s]])
            covered = block if covered is None else np.union1d(covered, block)
        if covered is None:
            return True  # nothing known: fail open
        return np.setdiff1d(mine, covered, assume_unique=False).size > 0

    def schedule(
        self,
        new_nodes: np.ndarray,
        first_senders: np.ndarray,
        rng: np.random.Generator,
        ctx: EngineContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        topo = ctx.topology
        n = len(new_nodes)
        will = np.ones(n, dtype=bool)
        for i, (node, sender) in enumerate(
            zip(np.asarray(new_nodes), np.asarray(first_senders), strict=True)
        ):
            will[i] = self._uncovered_remains(node, [sender], topo)
        if self.p < 1.0:
            will &= rng.random(n) < self.p
        slots = self.random_slots(n, rng, ctx)
        return will, slots

    def confirm(
        self,
        node_ids: np.ndarray,
        duplicate_receptions: np.ndarray,
        rng: np.random.Generator,
        ctx: EngineContext,
        overheard=None,
    ) -> np.ndarray:
        keep = np.ones(len(node_ids), dtype=bool)
        if overheard is None:
            return keep
        topo = ctx.topology
        for i, node in enumerate(np.asarray(node_ids)):
            senders = overheard[i] if overheard[i] is not None else []
            keep[i] = self._uncovered_remains(node, senders, topo)
        return keep

    def __repr__(self) -> str:
        return f"NeighborKnowledgeRelay(p={self.p})"
