"""The serve wire model: requests, validation, canonical request keys.

A request asks one of two questions about a deployment density:

* ``kind="bound"`` — evaluate one relay probability ``p`` at density
  ``rho`` under the query's bounds/objectives: is it feasible, and
  what are its reachability / latency / energy at the stopping time?
* ``kind="objective"`` — evaluate a candidate set ``ps`` and return
  the best feasible probability under the same lexicographic order the
  optimizer uses (:func:`repro.optimize.spec.better`).

Both decompose into the same unit of work — ``replications``
independent simulation tasks per probability, keyed by
:func:`repro.store.keys.task_key` — which is what the service
coalesces and batches.  Seeds are **explicit and required**: two
clients asking the same question with the same seed produce identical
task keys (and therefore share one scheduler run and one store entry);
an implicit "fresh entropy per request" default would silently defeat
every cache tier.

Task planning goes through the runner's planner,
:func:`repro.sim.runner.point_tasks` (fresh ``SeedSequence(seed)``
spawned into ``replications`` children per probability), so serve
traffic shares store entries with offline ``replicate``/``sweep_grid``
workloads, and candidate probabilities of one request share
deployments (common random numbers) for free.

Requests parse from JSON objects (one per line on the CLI's stdio
loop); :func:`request_key` fingerprints a request for response ids and
logs via the store's canonical JSON — derivation is pure, like every
other key in this codebase.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError, ServeError
from repro.optimize.spec import OptimizeQuery
from repro.sim.runner import ENGINES
from repro.store.keys import canonical_json
from repro.utils.validation import check_in

__all__ = [
    "REQUEST_KINDS",
    "DEFAULT_PS",
    "ServeRequest",
    "parse_request",
    "request_key",
]

REQUEST_KINDS: tuple[str, ...] = ("bound", "objective")

#: Candidate grid of an ``objective`` request that names none — the
#: paper's canonical nine probabilities.
DEFAULT_PS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class ServeRequest:
    """One validated query against the service.

    Attributes
    ----------
    kind:
        ``"bound"`` (evaluate one ``p``) or ``"objective"`` (pick the
        best of ``ps``).
    rho:
        Deployment density (nodes per unit disk), as everywhere else.
    ps:
        The probabilities to evaluate: exactly one for ``bound``
        requests, a candidate grid for ``objective`` ones.
    seed:
        Explicit base entropy; per-replication seeds are spawned from
        a fresh ``SeedSequence(seed)`` per probability.
    replications:
        Monte-Carlo runs per probability.
    bounds, objectives, min_feasible:
        As in :class:`repro.optimize.spec.OptimizeQuery`.
    n_rings, engine, alignment:
        Scenario knobs forwarded to the simulation config / runner:
        ``engine`` is one of :data:`repro.sim.runner.ENGINES`,
        ``alignment`` (DES only) ``"phase"`` or ``"jitter"``.
    """

    kind: str
    rho: float
    ps: tuple[float, ...]
    seed: int
    replications: int = 10
    bounds: Mapping[str, float] = field(default_factory=dict)
    objectives: tuple[str, ...] = ("reachability",)
    min_feasible: float = 0.5
    n_rings: int = 4
    engine: str = "vector"
    alignment: str = "phase"

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ConfigurationError(
                f"unknown request kind {self.kind!r}; expected one of {REQUEST_KINDS}"
            )
        object.__setattr__(self, "ps", tuple(float(p) for p in self.ps))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "bounds", dict(self.bounds))
        if not self.ps:
            raise ConfigurationError("a request needs at least one probability")
        if self.kind == "bound" and len(self.ps) != 1:
            raise ConfigurationError(
                f"a bound request evaluates exactly one p, got {len(self.ps)}"
            )
        for p in self.ps:
            if not 0.0 < p <= 1.0:
                raise ConfigurationError(f"p must be in (0, 1], got {p}")
        if self.rho <= 0:
            raise ConfigurationError(f"rho must be > 0, got {self.rho}")
        if self.replications <= 0:
            raise ConfigurationError(
                f"replications must be > 0, got {self.replications}"
            )
        check_in("engine", self.engine, ENGINES)
        check_in("alignment", self.alignment, ("phase", "jitter"))
        # Delegate bound/objective semantics to the optimizer's model —
        # one validator, one error vocabulary.
        self.query()

    def query(self) -> OptimizeQuery:
        """The request's constraint model, in the optimizer's terms."""
        return OptimizeQuery(
            bounds=self.bounds,
            objectives=self.objectives,
            min_feasible=self.min_feasible,
        )


_FIELDS: dict[str, Any] = {
    "kind": str,
    "rho": float,
    "p": float,
    "ps": list,
    "seed": int,
    "replications": int,
    "bounds": dict,
    "objectives": list,
    "min_feasible": float,
    "n_rings": int,
    "engine": str,
    "alignment": str,
}


def parse_request(doc: str | Mapping[str, Any]) -> ServeRequest:
    """Build a :class:`ServeRequest` from a JSON line or parsed object.

    Accepts ``p`` (scalar) or ``ps`` (list) interchangeably; every
    other unknown field is rejected loudly — a typo'd field name must
    not silently become a default.

    Raises
    ------
    ServeError
        On undecodable JSON or unknown/missing fields.
    ConfigurationError
        On well-formed but invalid values (via the dataclass).
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise ServeError(f"undecodable request line: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ServeError(
            f"a request must be a JSON object, got {type(doc).__name__}"
        )
    unknown = sorted(set(doc) - set(_FIELDS))
    if unknown:
        raise ServeError(
            f"unknown request field(s) {unknown}; expected {sorted(_FIELDS)}"
        )
    if "p" in doc and "ps" in doc:
        raise ServeError("pass either p or ps, not both")
    fields = {k: v for k, v in doc.items() if k not in ("p", "ps")}
    if "p" in doc:
        fields["ps"] = (float(doc["p"]),)
    elif "ps" in doc:
        fields["ps"] = tuple(float(p) for p in doc["ps"])
    elif doc.get("kind") == "objective":
        fields["ps"] = DEFAULT_PS
    else:
        raise ServeError("a bound request needs a p")
    for name in ("kind", "rho", "seed"):
        if name not in fields:
            raise ServeError(f"request is missing required field {name!r}")
    if "objectives" in fields:
        fields["objectives"] = tuple(fields["objectives"])
    try:
        return ServeRequest(**fields)
    except TypeError as exc:
        raise ServeError(f"malformed request: {exc}") from exc


def request_key(request: ServeRequest) -> str:
    """Canonical SHA-256 fingerprint of a request (for ids and logs).

    Pure over the request fields — the same question always carries
    the same id, which is what makes duplicate detection observable in
    traces.
    """
    doc = {
        "kind": request.kind,
        "rho": request.rho,
        "ps": list(request.ps),
        "seed": request.seed,
        "replications": request.replications,
        "bounds": dict(request.bounds),
        "objectives": list(request.objectives),
        "min_feasible": request.min_feasible,
        "n_rings": request.n_rings,
        "engine": request.engine,
        "alignment": request.alignment,
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
