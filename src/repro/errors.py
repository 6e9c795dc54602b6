"""Exception hierarchy for :mod:`repro`.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking genuine bugs (``TypeError`` from numpy, etc.).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "ConvergenceError",
    "SimulationError",
    "ProtocolError",
    "InfeasibleConstraintError",
    "StoreError",
    "StoreCorruptionError",
    "SchedulerError",
    "ServeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or combination of parameters was supplied."""


class ModelError(ReproError):
    """The analytical model was used outside its domain of validity."""


class ConvergenceError(ModelError):
    """An iterative computation failed to converge within its budget."""


class SimulationError(ReproError):
    """The discrete-event or slotted simulator reached an invalid state."""


class ProtocolError(SimulationError):
    """A protocol implementation violated the engine contract."""


class InfeasibleConstraintError(ModelError):
    """A requested constraint (reachability/latency/energy) cannot be met.

    Raised, for example, when a reachability target exceeds what a given
    broadcast probability can ever deliver (paper Sec. 4.2.4: for some
    ``(p, rho)`` combinations 72% reachability is unattainable).
    """


class StoreError(ReproError):
    """A result-store operation failed (I/O, layout, or invalid key)."""


class StoreCorruptionError(StoreError):
    """A store entry failed its checksum or could not be decoded.

    The scheduler treats this as a cache miss and recomputes; the
    ``verify`` CLI surfaces it to the operator.
    """


class SchedulerError(StoreError):
    """Tasks of a sweep kept failing after bounded retry.

    With a store, everything that *did* complete has already been
    persisted and journaled, so re-running the same sweep
    (``resume=True``) only retries the failed tasks.  ``failures`` holds
    ``(task_index, key, exception)`` triples (``key`` is ``None`` for a
    storeless run); ``attempts`` is how many execution
    rounds each surviving failure went through (retries + 1 unless the
    task appeared mid-sweep).
    """

    def __init__(
        self, message: str, failures: tuple = (), attempts: int = 0
    ) -> None:
        super().__init__(message)
        #: tuple of ``(task_index, key, exception)``
        self.failures = tuple(failures)
        #: execution rounds the failing tasks went through
        self.attempts = int(attempts)


class ServeError(ReproError):
    """A serve-tier request failed: malformed wire input, a timeout
    after bounded retry, or a shut-down service.

    Scheduler-level failures surface as :class:`SchedulerError` even
    through the service — the serve tier adds request/transport
    failure modes, it does not re-wrap compute ones.
    """
