"""The cheap tier of the two-tier evaluator: the analytical ring model.

Every search probe is answered by the paper's own ring recursion — a
closed-form surrogate evaluated by the batched
:meth:`~repro.analysis.ring_model.RingModel.run_batch` — so the
Monte-Carlo simulator is reserved for *verifying* the handful of
candidates the search shortlists (see :mod:`repro.optimize.verify`).

Traces are memoized per probability, and :func:`~repro.optimize.optimize`
reads through one shared model per density and carrier sense
(:meth:`SurrogateModel.shared`).  The first query at a density pays for
the recursion, about 0.3 ms per probe in the batches of ~4
probabilities a search step asks for (e2e ``optimize`` workload, 88
probes per query, on a 2-vCPU Xeon VM); a later query at that density
re-runs it only for rungs no earlier query probed, and otherwise pays
only :func:`~repro.optimize.spec.evaluate_trace`.  ``run_batch`` is
bit-identical per trace regardless of batch composition, so a memoized
probe equals a fresh probe and a dense-sweep probe exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.metrics import QUIESCENCE_PHASES
from repro.analysis.ring_model import RingModel
from repro.analysis.trace import BroadcastTrace
from repro.obs import spans as obs_spans
from repro.optimize.spec import Evaluation, OptimizeQuery, evaluate_trace
from repro.sim.config import SimulationConfig

__all__ = ["SHARED_MODELS", "SurrogateModel"]

#: Shared models a process keeps, least recently used evicted first.
#: One memoized trace costs ~2 kB with its cumulative series
#: (tracemalloc, rho=140), so a density queried at the default ladder
#: resolution of 0.001 holds at most ~2 MB, and the shared memo at most
#: ~16 MB per resolution in use.
SHARED_MODELS = 8


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
        Fresh recursion lanes paid so far (cache misses).

    Memoized traces are shared by every caller of :meth:`traces`, so
    their arrays, cumulative series included, are read-only.  Threads
    may share a model: concurrent misses on one probability store
    bit-identical traces under one key, and only the diagnostic
    ``probes`` counter can lose an update.
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
        self._traces: dict[float, BroadcastTrace] = {}

    @staticmethod
    def shared(config: SimulationConfig | AnalysisConfig) -> "SurrogateModel":
        """The process-wide model for ``config``'s density and carrier sense.

        Keyed by ``(analysis config, carrier_sense)``, a bare
        :class:`~repro.analysis.config.AnalysisConfig` counting as
        carrier sense off; no other simulation setting reaches the
        surrogate.  At most :data:`SHARED_MODELS` are kept.
        """
        if isinstance(config, SimulationConfig):
            return _shared_model(config.analysis, config.carrier_sense)
        return _shared_model(config, False)

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
        missing = sorted({p for p in wanted if p not in self._traces})
        if missing:
            prof = obs_spans.profiler()
            begin = prof.begin if prof.enabled else None
            h = begin("optimize.surrogate", "optimize") if begin is not None else None
            batch = self.model.run_batch(
                np.asarray(missing, dtype=float), max_phases=self.max_phases
            )
            for p, trace in zip(missing, batch, strict=True):
                for array in (
                    trace.new_by_phase_ring,
                    trace.broadcasts_by_phase,
                    trace.cumulative_reachability,
                    trace.cumulative_broadcasts,
                ):
                    array.setflags(write=False)
                self._traces[p] = trace
            self.probes += len(missing)
            if h is not None:
                h.end(probes=len(missing))
        return [self._traces[p] for p in wanted]

    def evaluate(
        self, query: OptimizeQuery, ps: Sequence[float]
    ) -> list[Evaluation]:
        """Evaluate a query at a batch of probabilities."""
        return [evaluate_trace(t, query) for t in self.traces(ps)]


@lru_cache(maxsize=SHARED_MODELS)
def _shared_model(analysis: AnalysisConfig, carrier_sense: bool) -> SurrogateModel:
    return SurrogateModel(
        SimulationConfig(analysis=analysis, carrier_sense=carrier_sense)
    )
