"""Result records for simulated broadcast executions.

A :class:`RunResult` carries both a phase/ring-aggregated
:class:`~repro.analysis.trace.BroadcastTrace` — so every analytic metric
applies verbatim to simulation output — and slot-resolution series for
the metrics where the simulator can do better than phase interpolation
(exact latency and budget crossings).

:class:`AggregateResult` summarizes a metric over independent
replications with a normal-approximation confidence interval, matching
the paper's "averaged over 30 random runs".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.analysis.trace import BroadcastTrace
from repro.errors import InfeasibleConstraintError
from repro.utils.stats import norm_ppf
from repro.utils.validation import check_fraction, check_positive

__all__ = ["RunResult", "AggregateResult", "aggregate_metric"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated broadcast execution.

    Attributes
    ----------
    trace:
        Phase/ring-aggregated execution trace (the simulation
        counterpart of the analytical recursion's output).  Its config
        carries the *realized* density, so trace reachabilities use the
        actual node count as denominator.
    new_informed_by_slot:
        Field nodes first informed in each absolute slot (slot 0 is the
        first slot of phase 1).
    broadcasts_by_slot:
        Transmissions in each absolute slot (including the source's).
    n_field_nodes:
        Reachability denominator (deployment size minus the source).
    collisions:
        Total (receiver, slot) collision events observed.
    total_tx, total_rx:
        Energy-ledger totals: transmissions and successful receptions.
    seed_entropy:
        Entropy of the seed sequence that drove this run (for replay).
    """

    trace: BroadcastTrace
    new_informed_by_slot: np.ndarray = field(repr=False)
    broadcasts_by_slot: np.ndarray = field(repr=False)
    n_field_nodes: int = 0
    collisions: int = 0
    total_tx: int = 0
    total_rx: int = 0
    seed_entropy: object = None
    #: final per-node informed flags (source included), when the engine
    #: provides them; None for results reconstructed from series alone
    informed_mask: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def slots_per_phase(self) -> int:
        """Slots per phase of the underlying configuration."""
        return self.trace.config.slots

    @property
    def reachability(self) -> float:
        """Fraction of field nodes informed by the end of the run."""
        return float(self.new_informed_by_slot.sum()) / self.n_field_nodes

    @property
    def broadcasts_total(self) -> int:
        """Total transmissions — the paper's energy metric ``M``."""
        return int(self.broadcasts_by_slot.sum())

    def reachability_after_phases(self, phases: float) -> float:
        """Reachability within a phase budget, at slot resolution."""
        check_positive("phases", phases, allow_zero=True)
        slot_budget = phases * self.slots_per_phase
        cum = np.cumsum(self.new_informed_by_slot)
        if len(cum) == 0:
            return 0.0
        idx = min(int(math.ceil(slot_budget)), len(cum)) - 1
        if idx < 0:
            return 0.0
        return float(cum[idx]) / self.n_field_nodes

    def latency_phases_to(self, reachability: float) -> float:
        """Phases (slot-resolution, fractional) to a reachability target."""
        target = check_fraction("reachability", reachability)
        cum = np.cumsum(self.new_informed_by_slot) / self.n_field_nodes
        if len(cum) == 0 or cum[-1] < target:
            peak = float(cum[-1]) if len(cum) else 0.0
            raise InfeasibleConstraintError(
                f"reachability {target:.3f} unattained (peak {peak:.3f})"
            )
        slot = int(np.searchsorted(cum, target))
        return (slot + 1) / self.slots_per_phase

    def broadcasts_to(self, reachability: float) -> int:
        """Transmissions spent when a reachability target is first hit."""
        target = check_fraction("reachability", reachability)
        cum_r = np.cumsum(self.new_informed_by_slot) / self.n_field_nodes
        if len(cum_r) == 0 or cum_r[-1] < target:
            peak = float(cum_r[-1]) if len(cum_r) else 0.0
            raise InfeasibleConstraintError(
                f"reachability {target:.3f} unattained (peak {peak:.3f})"
            )
        slot = int(np.searchsorted(cum_r, target))
        return int(self.broadcasts_by_slot[: slot + 1].sum())

    def reachability_within_budget(self, budget: float) -> float:
        """Reachability reached before the broadcast budget is exceeded."""
        check_positive("budget", budget)
        cum_b = np.cumsum(self.broadcasts_by_slot)
        cum_r = np.cumsum(self.new_informed_by_slot) / self.n_field_nodes
        if len(cum_b) == 0:
            return 0.0
        within = np.flatnonzero(cum_b <= budget)
        if len(within) == 0:
            return 0.0
        return float(cum_r[within[-1]])


@dataclass(frozen=True)
class AggregateResult:
    """A metric summarized over independent replications.

    ``NaN`` samples (infeasible runs) are excluded from the moments but
    reported via ``n_failed`` — the paper's figures likewise omit
    infeasible grid points.
    """

    name: str
    samples: np.ndarray = field(repr=False)
    confidence: float = 0.95

    @property
    def n(self) -> int:
        """Number of feasible samples."""
        return int(np.sum(~np.isnan(self.samples)))

    @property
    def n_failed(self) -> int:
        """Number of infeasible (NaN) samples."""
        return int(np.sum(np.isnan(self.samples)))

    @property
    def mean(self) -> float:
        """Sample mean over feasible replications (NaN if none)."""
        return float(np.nanmean(self.samples)) if self.n else float("nan")

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; NaN for < 2 samples)."""
        return float(np.nanstd(self.samples, ddof=1)) if self.n >= 2 else float("nan")

    @property
    def half_width(self) -> float:
        """Normal-approximation CI half width at ``confidence``."""
        if self.n < 2:
            return float("nan")
        z = norm_ppf(0.5 + self.confidence / 2.0)
        return float(z * self.std / math.sqrt(self.n))

    @property
    def ci(self) -> tuple[float, float]:
        """The confidence interval ``(lo, hi)``."""
        hw = self.half_width
        return (self.mean - hw, self.mean + hw)

    def __str__(self) -> str:
        return f"{self.name}: {self.mean:.4f} ± {self.half_width:.4f} (n={self.n})"


def aggregate_metric(
    results: Sequence[RunResult],
    metric: Callable[[RunResult], float],
    *,
    name: str = "metric",
    confidence: float = 0.95,
) -> AggregateResult:
    """Evaluate ``metric`` on each run; infeasible runs count as NaN."""
    samples = np.empty(len(results))
    for i, run in enumerate(results):
        try:
            samples[i] = metric(run)
        except InfeasibleConstraintError:
            samples[i] = np.nan
    return AggregateResult(name=name, samples=samples, confidence=confidence)
