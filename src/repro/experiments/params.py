"""The paper's experimental parameters, and scaled-down variants.

Sec. 4.2.3: ``P = 5``, ``s = 3``, ``rho`` from 20 to 140 in steps of 20,
analysis probabilities 0.01..1.00 step 0.01.  Sec. 5: simulation
probabilities 0.05..1.00 step 0.05, 30 random runs per point.  The
constraint values are the paper's: 5 phases, 72% reachability
(analysis) / 63% (simulation), 35 broadcasts (analysis) / 80
(simulation).

``ExperimentScale.quick()`` shrinks the grids for CI-friendly runtimes
while keeping every qualitative feature (optimal-``p`` trend, plateau,
crossovers) visible; benchmarks accept either scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.optimize.search import default_probability_grid
from repro.sim.config import SimulationConfig

__all__ = ["PaperParams", "ExperimentScale"]


class PaperParams:
    """Constants straight from the paper's evaluation sections."""

    N_RINGS = 5
    SLOTS = 3
    RHO_GRID = tuple(range(20, 141, 20))
    ANALYSIS_P_STEP = 0.01
    SIM_P_STEP = 0.05
    REPLICATIONS = 30
    LATENCY_BUDGET_PHASES = 5.0
    ANALYSIS_REACH_TARGET = 0.72
    SIM_REACH_TARGET = 0.63
    ANALYSIS_ENERGY_BUDGET = 35.0
    SIM_ENERGY_BUDGET = 80.0
    FIG12_RATIO = 11.0  # the paper's reported optimal-p / success-rate ratio


@dataclass(frozen=True)
class ExperimentScale:
    """Grid resolution for one reproduction run.

    Attributes
    ----------
    name:
        ``"full"`` (the paper's grids) or ``"quick"`` / custom.
    rho_grid:
        Densities to sweep.
    analysis_p_step / sim_p_step:
        Probability grid steps for analysis and simulation figures.
    replications:
        Monte-Carlo runs per simulated grid point.
    seed:
        Root seed for all simulation figures at this scale.
    workers:
        Process count for simulated sweeps (``None`` = every usable
        CPU, the default; ``1`` = in-process).
    progress:
        If true, simulated sweeps print throttled progress/ETA lines to
        stderr (see :mod:`repro.obs.progress`).  Deliberately *not* part
        of the figure-cache key: it changes terminal output only, never
        results.
    store:
        Optional result-store directory (see :mod:`repro.store`).
        Simulated sweeps then serve cached tasks and persist fresh
        completions, so re-rendering figures against a warm store skips
        the Monte-Carlo work entirely.  Like ``progress``, not part of
        the figure-cache key: stored results are bit-identical to
        recomputed ones.
    resume:
        With ``store``: resume an interrupted sweep from its journal.
    """

    name: str
    rho_grid: tuple[int, ...]
    analysis_p_step: float
    sim_p_step: float
    replications: int
    seed: int = 20050113  # the paper's preprint date
    workers: int | None = None
    progress: bool = False
    store: str | None = None
    resume: bool = False

    @classmethod
    def full(
        cls,
        *,
        workers: int | None = None,
        progress: bool = False,
        store: str | None = None,
        resume: bool = False,
    ) -> "ExperimentScale":
        """The paper's exact grids (minutes of wall time for sim figures)."""
        return cls(
            name="full",
            rho_grid=PaperParams.RHO_GRID,
            analysis_p_step=PaperParams.ANALYSIS_P_STEP,
            sim_p_step=PaperParams.SIM_P_STEP,
            replications=PaperParams.REPLICATIONS,
            workers=workers,
            progress=progress,
            store=store,
            resume=resume,
        )

    @classmethod
    def quick(
        cls,
        *,
        workers: int | None = None,
        progress: bool = False,
        store: str | None = None,
        resume: bool = False,
    ) -> "ExperimentScale":
        """Coarse grids for CI: same qualitative shapes, ~100x cheaper."""
        return cls(
            name="quick",
            rho_grid=(20, 60, 100, 140),
            analysis_p_step=0.02,
            sim_p_step=0.10,
            replications=6,
            workers=workers,
            progress=progress,
            store=store,
            resume=resume,
        )

    # ------------------------------------------------------------------
    @property
    def analysis_p_grid(self) -> np.ndarray:
        """Probability grid for analytical sweeps."""
        return default_probability_grid(self.analysis_p_step)

    @property
    def sim_p_grid(self) -> np.ndarray:
        """Probability grid for simulated sweeps."""
        return default_probability_grid(self.sim_p_step)

    def analysis_config(self, rho: float) -> AnalysisConfig:
        """The analytical configuration at density ``rho``."""
        return AnalysisConfig(
            n_rings=PaperParams.N_RINGS, rho=rho, slots=PaperParams.SLOTS
        )

    def simulation_config(self, rho: float) -> SimulationConfig:
        """The simulation configuration at density ``rho``."""
        return SimulationConfig(analysis=self.analysis_config(rho))
