"""Execution traces of the analytical broadcast recursion.

A :class:`BroadcastTrace` records, per time phase, the expected number
of *newly informed* nodes in each ring and the expected number of
broadcasts performed.  All four paper metrics (Sec. 4.1) are derived
from a trace:

* reachability after a latency budget (Fig. 4),
* fractional-phase latency to a reachability target (Fig. 5),
* broadcast count ("energy") to a reachability target (Fig. 6),
* reachability within a broadcast budget (Fig. 7).

Fractional phases follow the paper's convention (Sec. 4.2.4): arrivals
and broadcasts within a phase are treated as uniformly spread over the
phase, so curves are piecewise-linear between phase boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.errors import InfeasibleConstraintError
from repro.utils.validation import check_fraction, check_positive

__all__ = ["BroadcastTrace"]


@dataclass(frozen=True)
class BroadcastTrace:
    """Result of running the ring-model recursion (or a simulator adapter).

    Attributes
    ----------
    config:
        The analytical configuration the trace was produced under.
    p:
        Broadcast probability used.
    new_by_phase_ring:
        Shape ``(phases, n_rings)``: expected newly informed node count
        in ring ``j`` during phase ``i`` — the paper's ``n_j^i``.
        Row 0 is phase ``T_1`` (the source's own broadcast).
    broadcasts_by_phase:
        Shape ``(phases,)``: expected broadcasts performed during each
        phase.  Phase ``T_1`` contains exactly the source's broadcast.
    """

    config: AnalysisConfig
    p: float
    new_by_phase_ring: np.ndarray = field(repr=False)
    broadcasts_by_phase: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        new = np.asarray(self.new_by_phase_ring, dtype=float)
        bc = np.asarray(self.broadcasts_by_phase, dtype=float)
        if new.ndim != 2 or new.shape[1] != self.config.n_rings:
            raise ValueError(
                f"new_by_phase_ring must be (phases, {self.config.n_rings}), "
                f"got {new.shape}"
            )
        if bc.shape != (new.shape[0],):
            raise ValueError(
                f"broadcasts_by_phase must be ({new.shape[0]},), got {bc.shape}"
            )
        object.__setattr__(self, "new_by_phase_ring", new)
        object.__setattr__(self, "broadcasts_by_phase", bc)

    # ------------------------------------------------------------------
    # basic series
    # ------------------------------------------------------------------
    @property
    def phases(self) -> int:
        """Number of phases recorded."""
        return int(self.new_by_phase_ring.shape[0])

    @property
    def new_by_phase(self) -> np.ndarray:
        """Newly informed nodes per phase, summed over rings."""
        return self.new_by_phase_ring.sum(axis=1)

    @property
    def informed_total(self) -> float:
        """Expected number of informed nodes at the end of the trace."""
        return float(self.new_by_phase_ring.sum())

    @property
    def broadcasts_total(self) -> float:
        """Expected total broadcasts over the whole trace (the metric ``M``)."""
        return float(self.broadcasts_by_phase.sum())

    @cached_property
    def cumulative_reachability(self) -> np.ndarray:
        """Reachability at the end of each phase: ``cum_informed / N``."""
        return np.cumsum(self.new_by_phase) / self.config.n_nodes

    @cached_property
    def cumulative_broadcasts(self) -> np.ndarray:
        """Cumulative broadcasts at the end of each phase."""
        return np.cumsum(self.broadcasts_by_phase)

    @property
    def final_reachability(self) -> float:
        """Reachability when the recursion terminated."""
        return self.informed_total / self.config.n_nodes

    def informed_by_ring(self) -> np.ndarray:
        """Total informed per ring over the whole trace (length ``n_rings``)."""
        return self.new_by_phase_ring.sum(axis=0)

    # ------------------------------------------------------------------
    # paper metrics
    # ------------------------------------------------------------------
    def reachability_after(self, phases: float) -> float:
        """Reachability after a (possibly fractional) number of phases.

        A budget beyond the recorded trace returns the final value: the
        recursion is only truncated once arrivals are negligible.
        """
        phases = check_positive("phases", phases, allow_zero=True)
        cum = self.cumulative_reachability
        grid = np.arange(0, self.phases + 1, dtype=float)
        values = np.concatenate(([0.0], cum))
        if phases >= self.phases:
            return float(cum[-1])
        return float(np.interp(phases, grid, values))

    def latency_to(self, reachability: float) -> float:
        """Fractional phases needed to reach a reachability target.

        Raises
        ------
        InfeasibleConstraintError
            If the trace never attains the target (paper Fig. 5: for
            small ``p`` some targets are unattainable; those points are
            omitted from the figure).
        """
        target = check_fraction("reachability", reachability)
        cum = self.cumulative_reachability
        if cum[-1] < target:
            raise InfeasibleConstraintError(
                f"reachability {target:.3f} unattainable: trace peaks at "
                f"{cum[-1]:.3f} (p={self.p}, rho={self.config.rho})"
            )
        idx = int(np.searchsorted(cum, target))
        prev = cum[idx - 1] if idx > 0 else 0.0
        gain = cum[idx] - prev
        frac = 0.0 if gain <= 0 else (target - prev) / gain
        return float(idx + frac)

    def broadcasts_at(self, time_phases: float) -> float:
        """Cumulative broadcasts at a fractional phase time."""
        time_phases = check_positive("time_phases", time_phases, allow_zero=True)
        grid = np.arange(0, self.phases + 1, dtype=float)
        values = np.concatenate(([0.0], self.cumulative_broadcasts))
        if time_phases >= self.phases:
            return float(values[-1])
        return float(np.interp(time_phases, grid, values))

    def broadcasts_to(self, reachability: float) -> float:
        """Expected broadcasts spent by the time a reachability target is hit.

        This is the paper's energy metric for Fig. 6 ("the number of
        broadcasts ... required to achieve 72% reachability"): broadcasts
        are accumulated up to the fractional phase where the target is
        crossed.
        """
        return self.broadcasts_at(self.latency_to(reachability))

    def reachability_within_energy(self, budget: float) -> float:
        """Reachability achieved before exhausting a broadcast budget (Fig. 7).

        If the whole trace spends fewer broadcasts than the budget, the
        final reachability is returned.  Within the phase where the
        budget runs out, broadcasts and arrivals are interpolated with
        the same uniform-in-phase convention as the other metrics.
        """
        budget = check_positive("budget", budget)
        cum_b = self.cumulative_broadcasts
        if budget >= cum_b[-1]:
            # Read the same cumulative series the interpolated branch
            # reads: ``final_reachability`` sums the ring matrix in a
            # different order and can disagree by one ulp.
            return self.reachability_after(float(self.phases))
        # Invert broadcasts(t) at the budget, taking the LATEST time the
        # budget still holds: broadcasts(t) can be flat across phases
        # with no transmissions while reachability keeps accruing, and
        # the budget is not exceeded anywhere on the flat stretch.
        b_values = np.concatenate(([0.0], cum_b))
        idx = int(np.searchsorted(b_values, budget, side="right"))
        # idx is the first index with b_values > budget; the budget runs
        # out partway through phase `idx` (1-based).
        prev_b = b_values[idx - 1]
        gain = b_values[idx] - prev_b
        frac = (budget - prev_b) / gain
        t = (idx - 1) + frac
        return self.reachability_after(t)

    # ------------------------------------------------------------------
    def truncated(self, phases: int) -> "BroadcastTrace":
        """A copy containing only the first ``phases`` phases."""
        if phases < 1:
            raise ValueError("phases must be >= 1")
        phases = min(phases, self.phases)
        return BroadcastTrace(
            config=self.config,
            p=self.p,
            new_by_phase_ring=self.new_by_phase_ring[:phases].copy(),
            broadcasts_by_phase=self.broadcasts_by_phase[:phases].copy(),
        )
