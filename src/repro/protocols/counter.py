"""Counter-based broadcast suppression (extension protocol).

A node schedules its relay like probability-based broadcast, but if it
overhears the same information ``threshold`` or more times before its
slot arrives, it concludes its neighborhood is already covered and
cancels.  This is the classic counter-based scheme from the broadcast
storm literature; the paper's taxonomy (via Williams et al.) groups it
with the area-based schemes left to future analytical work.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import EngineContext
from repro.protocols.pbcast import ProbabilisticRelay
from repro.utils.validation import check_positive_int

__all__ = ["CounterBasedRelay"]


class CounterBasedRelay(ProbabilisticRelay):
    """Schedule with probability ``p``; cancel after ``threshold`` overhears.

    Parameters
    ----------
    threshold:
        Cancel the pending relay once this many *duplicate* collision-
        free receptions have been overheard before the scheduled slot.
    p:
        Scheduling probability (1.0 gives the pure counter-based scheme).
    """

    name = "counter"

    def __init__(self, threshold: int = 2, p: float = 1.0):
        super().__init__(p)
        self.threshold = check_positive_int("threshold", threshold)

    def confirm(
        self,
        node_ids: np.ndarray,
        duplicate_receptions: np.ndarray,
        rng: np.random.Generator,
        ctx: EngineContext,
        overheard=None,
    ) -> np.ndarray:
        return np.asarray(duplicate_receptions) < self.threshold

    def __repr__(self) -> str:
        return f"CounterBasedRelay(threshold={self.threshold}, p={self.p})"
