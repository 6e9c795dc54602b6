"""The cheap tier of the two-tier evaluator: the analytical ring model.

Every search probe is answered by the paper's own ring recursion — a
closed-form surrogate evaluated by the batched
:meth:`~repro.analysis.ring_model.RingModel.run_batch` — so the
Monte-Carlo simulator is reserved for *verifying* the handful of
candidates the search shortlists (see :mod:`repro.optimize.verify`).
A probe costs about 0.3 ms in the batches of ~4 probabilities a search
step asks for (e2e ``optimize`` workload, 88 probes per query, on a
2-vCPU Xeon VM); the recursion's quadrature, geometry and ``mu`` tables
are built once per process, not per query.

Traces are memoized per probability: adjacent queries against one
:class:`SurrogateModel` re-derive their metrics from cached traces
without re-running the recursion, and ``run_batch`` is bit-identical
per trace regardless of batch composition, so a memoized probe equals
a dense-sweep probe exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.metrics import QUIESCENCE_PHASES
from repro.analysis.ring_model import RingModel
from repro.analysis.trace import BroadcastTrace
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.optimize.spec import Evaluation, OptimizeQuery, evaluate_trace
from repro.sim.config import SimulationConfig

__all__ = ["SurrogateModel"]


class SurrogateModel:
    """Memoizing analytical evaluator over broadcast probabilities.

    Parameters
    ----------
    config:
        A :class:`~repro.sim.config.SimulationConfig` — carrier-sense
        scenarios get the Appendix-A
        :class:`~repro.analysis.carrier_model.CarrierRingModel`, others
        the plain ring model — or a bare
        :class:`~repro.analysis.config.AnalysisConfig`.
    max_phases:
        Recursion horizon; the quiescent default serves every metric
        (truncating at a latency budget would yield the same
        interpolated values, see the trace's ``reachability_after``).

    Attributes
    ----------
    probes:
        Fresh recursion runs paid so far (cache misses).
    hits:
        Probe requests served from the trace memo.
    """

    def __init__(
        self,
        config: SimulationConfig | AnalysisConfig,
        *,
        max_phases: int = QUIESCENCE_PHASES,
    ) -> None:
        if isinstance(config, SimulationConfig):
            analysis = config.analysis
            if config.carrier_sense:
                from repro.analysis.carrier_model import CarrierRingModel

                self.model: RingModel = CarrierRingModel(analysis)
            else:
                self.model = RingModel(analysis)
        else:
            self.model = RingModel(config)
        self.max_phases = max_phases
        self.probes = 0
        self.hits = 0
        self._traces: dict[float, BroadcastTrace] = {}

    @property
    def config(self) -> AnalysisConfig:
        """The analytical configuration the surrogate runs under."""
        return self.model.config

    def traces(self, ps: Sequence[float]) -> list[BroadcastTrace]:
        """Memoized traces for a batch of probabilities.

        Cache misses run through one batched recursion; per-trace
        output is bit-identical to any other batch composition.
        """
        wanted = [float(p) for p in ps]
        cached = sum(1 for p in wanted if p in self._traces)
        missing = sorted({p for p in wanted if p not in self._traces})
        if missing:
            prof = obs_spans.profiler()
            begin = prof.begin if prof.enabled else None
            h = begin("optimize.surrogate", "optimize") if begin is not None else None
            batch = self.model.run_batch(
                np.asarray(missing, dtype=float), max_phases=self.max_phases
            )
            for p, trace in zip(missing, batch, strict=True):
                self._traces[p] = trace
            self.probes += len(missing)
            if h is not None:
                h.end(probes=len(missing))
            reg = obs_metrics.registry()
            if reg.enabled:
                reg.counter("optimize.surrogate_probes").inc(len(missing))
        self.hits += cached
        return [self._traces[p] for p in wanted]

    def evaluate(
        self, query: OptimizeQuery, ps: Sequence[float]
    ) -> list[Evaluation]:
        """Evaluate a query at a batch of probabilities."""
        return [evaluate_trace(t, query) for t in self.traces(ps)]
