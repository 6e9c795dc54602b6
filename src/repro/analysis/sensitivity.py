"""How precisely must the broadcast probability be tuned?

The optimizers report a single best ``p``, but a deployment can rarely
set it exactly: densities drift, estimates err.  This module quantifies
the tolerance around the optimum:

* :func:`robust_probability_band` — the interval of ``p`` whose metric
  stays within a factor of the optimum (e.g. "any p in [0.07, 0.14]
  keeps ≥ 95% of the best reachability");
* :func:`density_mismatch_penalty` — the cost of tuning for the wrong
  density: optimize at ``rho_assumed``, deploy at ``rho_actual``.

Both build directly on the paper's Fig. 4 machinery; the flatness of
the bell curve near its peak is what makes PB_CAM practical, and these
helpers make that flatness a first-class, queryable quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.optimizer import (
    METRICS,
    default_probability_grid,
    optimal_probability,
    sweep_metric,
)
from repro.analysis.ring_model import RingModel
from repro.optimize.spec import METRIC_SENSES
from repro.utils.validation import check_fraction, check_in

__all__ = [
    "RobustnessBand",
    "robust_probability_band",
    "MismatchResult",
    "density_mismatch_penalty",
]


def _sense(metric: str) -> str:
    """Whether a paper metric is maximized or minimized."""
    _, objective = METRICS[check_in("metric", metric, METRICS)]
    return METRIC_SENSES[objective]


@dataclass(frozen=True)
class RobustnessBand:
    """The tolerance interval around an optimal probability.

    Attributes
    ----------
    p_opt / value_opt:
        The optimum itself.
    p_low / p_high:
        The widest contiguous grid interval containing ``p_opt`` whose
        metric values stay within ``tolerance`` of the optimum.
    tolerance:
        Acceptable relative degradation (e.g. 0.05 = within 95% for a
        maximized metric, within 105% of the minimum for a minimized
        one).
    """

    metric: str
    constraint: float
    p_opt: float
    value_opt: float
    p_low: float
    p_high: float
    tolerance: float

    @property
    def width(self) -> float:
        """Absolute width of the acceptable interval."""
        return self.p_high - self.p_low

    @property
    def relative_width(self) -> float:
        """Width relative to the optimum — the tuning slack in 'percent of p'."""
        return self.width / self.p_opt if self.p_opt else float("inf")


def robust_probability_band(
    config: AnalysisConfig | RingModel,
    metric: str,
    constraint: float,
    *,
    tolerance: float = 0.05,
    p_grid: np.ndarray | None = None,
) -> RobustnessBand:
    """Compute the near-optimal tolerance band for one paper metric."""
    check_fraction("tolerance", tolerance)
    sense = _sense(metric)
    result = optimal_probability(config, metric, constraint, p_grid=p_grid)
    grid, values = result.p_grid, result.values
    if sense == "max":
        ok = values >= result.value * (1.0 - tolerance)
    else:
        ok = values <= result.value * (1.0 + tolerance)
    ok &= ~np.isnan(values)
    best_idx = int(np.nanargmin(np.abs(grid - result.p)))
    lo = best_idx
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    hi = best_idx
    while hi < len(grid) - 1 and ok[hi + 1]:
        hi += 1
    return RobustnessBand(
        metric=metric,
        constraint=float(constraint),
        p_opt=result.p,
        value_opt=result.value,
        p_low=float(grid[lo]),
        p_high=float(grid[hi]),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class MismatchResult:
    """The price of tuning ``p`` against a wrong density estimate.

    Attributes
    ----------
    p_used:
        The probability chosen for the assumed density.
    value_achieved:
        The metric actually achieved at the true density with that ``p``
        (NaN if the constraint became infeasible).
    value_optimal:
        What the true-density optimum would have achieved.
    efficiency:
        ``achieved / optimal`` for maximized metrics,
        ``optimal / achieved`` for minimized ones (1.0 = no loss;
        0.0 when infeasible).
    """

    rho_assumed: float
    rho_actual: float
    p_used: float
    value_achieved: float
    value_optimal: float
    efficiency: float


def density_mismatch_penalty(
    config: AnalysisConfig,
    rho_assumed: float,
    metric: str = "reachability_at_latency",
    constraint: float = 5.0,
    *,
    p_grid: np.ndarray | None = None,
) -> MismatchResult:
    """Optimize at ``rho_assumed``, evaluate at ``config.rho``.

    For the latency-constrained metric the penalty is asymmetric —
    and not in the direction naive intuition suggests: *over*estimating
    density (``p`` too small) starves the wave and misses the deadline
    badly, while *under*estimating it (``p`` too large) only slides down
    the shallow right flank of the bell curve.  (At `rho=60`, a 3x
    underestimate keeps ~90% efficiency; a 3x overestimate drops to
    ~58%.)  Either way the loss motivates the paper's Fig. 12 proposal
    of tuning from a locally observable success rate instead of a
    density estimate.
    """
    sense = _sense(metric)
    grid = default_probability_grid() if p_grid is None else np.asarray(p_grid, float)
    assumed = optimal_probability(
        config.with_rho(rho_assumed), metric, constraint, p_grid=grid
    )
    actual_opt = optimal_probability(config, metric, constraint, p_grid=grid)
    # A one-rung sweep: the metric at the true density, at the tuned p.
    _, (achieved,) = sweep_metric(config, metric, constraint, np.array([assumed.p]))

    if np.isnan(achieved):
        efficiency = 0.0
    elif sense == "max":
        efficiency = achieved / actual_opt.value if actual_opt.value else 1.0
    else:
        efficiency = actual_opt.value / achieved if achieved else 1.0
    return MismatchResult(
        rho_assumed=float(rho_assumed),
        rho_actual=float(config.rho),
        p_used=assumed.p,
        value_achieved=float(achieved),
        value_optimal=actual_opt.value,
        efficiency=float(efficiency),
    )
