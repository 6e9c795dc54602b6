"""Content-addressed keys for simulation results.

PR 2's provenance manifests established that a :class:`RunResult` is a
pure function of ``(config, policy, seed, engine, alignment,
deployment-reuse flag)`` plus the result schema the code writes.  A
store key is the SHA-256 of exactly that tuple in a canonical JSON
form, so two invocations that would compute the same result — whether
they come from :func:`~repro.sim.runner.replicate`, a pooled
:func:`~repro.sim.runner.sweep_grid`, or the figure pipeline — address
the same cache entry.

Purity contract (enforced by the whole-program ``flow-det-taint`` and
``flow-effects`` analyses): key derivation reads nothing but its
arguments — no wall clock, no RNG, no environment — otherwise a warm
cache would silently stop matching.

Invalidation is by construction: anything that can change the bytes of
a result is *in* the key.  Bump :data:`RESULT_SCHEMA_VERSION` when the
packed result layout changes; code-version changes that alter results
should bump it too (the alternative — keying on the git SHA — would
invalidate on every commit, including doc-only ones).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import StoreError
from repro.sim.config import SimulationConfig
from repro.utils.rng import SeedLike, as_seed_sequence

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "canonical_json",
    "seed_fingerprint",
    "task_key",
    "sweep_key",
]

#: Version of the packed-result layout (see :mod:`repro.store.backend`).
#: Part of every key: bumping it invalidates the whole store at once.
#: 2: DES slot series run to the end of their last active phase.
#: 3: boolean arrays are bit-packed.
RESULT_SCHEMA_VERSION = 3


def _canonical(value: Any) -> Any:
    """Reduce a value to JSON primitives with a stable representation.

    Mirrors the provenance serializer
    (:func:`repro.obs.provenance._jsonable`) but is *strict*: a value
    with no canonical form raises :class:`~repro.errors.StoreError`
    instead of falling back to ``repr`` — an unstable repr in a key
    would split identical work across entries.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        # NaN has no JSON form; tag it so it stays distinct from null.
        return "__nan__" if math.isnan(value) else value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # The form of ``asdict(value)``, without its recursive deep copy.
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    raise StoreError(
        f"value of type {type(value).__name__} has no canonical key form: {value!r}"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def seed_fingerprint(seed: SeedLike) -> dict:
    """The identity of a seed: its entropy plus spawn key.

    Two :class:`numpy.random.SeedSequence` objects generate identical
    streams iff both match, so together they pin every random draw of a
    task (the deployment, slot jitter, and relay decisions all descend
    from this sequence).
    """
    seq = as_seed_sequence(seed)
    entropy = seq.entropy
    if isinstance(entropy, (list, tuple)):
        entropy_c: Any = [int(e) for e in entropy]
    elif entropy is None:
        entropy_c = None
    else:
        entropy_c = int(entropy)
    return {"entropy": entropy_c, "spawn_key": [int(k) for k in seq.spawn_key]}


def task_key(
    policy: Any,
    config: SimulationConfig,
    seed: SeedLike,
    engine: str,
    alignment: str,
    *,
    reuse_deployment: bool = False,
) -> str:
    """SHA-256 key of one ``(policy, config, seed, engine)`` task.

    Parameters mirror one entry of the runner's task list.  ``policy``
    contributes through its ``repr`` — policy reprs are part of the
    public API and carry every parameter (e.g.
    ``ProbabilisticRelay(p=0.3)``).  ``reuse_deployment`` marks
    common-random-numbers tasks, whose deployment comes from a sibling
    seed stream rather than the run seed itself.
    """
    doc = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "config_class": type(config).__name__,
        "config": config,
        "policy": repr(policy),
        "seed": seed_fingerprint(seed),
        "engine": engine,
        "alignment": alignment,
        "reuse_deployment": bool(reuse_deployment),
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def sweep_key(task_keys: Iterable[str] | Sequence[str]) -> str:
    """Fingerprint of a whole sweep: the hash of its ordered task keys.

    Names the sweep's journal file, so re-invoking the same sweep (same
    grids, seed, engine, ...) finds its own crash record and nothing
    else's.
    """
    h = hashlib.sha256()
    for key in task_keys:
        h.update(key.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()
