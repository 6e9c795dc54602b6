"""The service tier: broadcast-parameter queries at request rate.

The ROADMAP's "millions of users asking for broadcast parameters"
architecture: an asyncio front end (:class:`QueryService`) over the
content-addressed store (its atomic per-writer writes need no lock
under the executor threads) and the cache-aware scheduler.  A
request asks a bound/objective question at one density
(:mod:`repro.serve.protocol`); the service decomposes it into
content-addressed simulation tasks, then spends as little as possible
answering them:

* identical in-flight task keys **coalesce** onto one future
  (single-flight map) — K identical concurrent queries, one scheduler
  run;
* distinct misses **batch** into one
  :func:`~repro.store.scheduler.run_tasks` call per event-loop tick;
* hot keys hit the **read-through memory tier**
  (:mod:`repro.serve.memory`) without touching disk.

Requests carry explicit seeds, and task planning mirrors
:func:`repro.sim.runner.replicate`, so service answers are
bit-identical to offline runs and share the same store entries.  The
serve tier itself performs no randomness (``io``/``time`` only —
enforced by the flow-analysis effect contract); all compute goes
through the two bridge callables in :mod:`repro.serve.compute`.

``repro-serve`` (:mod:`repro.serve.cli`) runs a stdio JSON-lines loop
and the benchmark replay (:mod:`repro.serve.workload`) whose
coalescing-ratio and warm-latency numbers the perf gate enforces.
"""

from repro.serve.memory import MemoryTier, ReadThroughStore
from repro.serve.protocol import ServeRequest, parse_request, request_key
from repro.serve.service import QueryService, ServiceStats
from repro.serve.workload import load_workload, make_workload, replay, save_workload

__all__ = [
    "MemoryTier",
    "ReadThroughStore",
    "ServeRequest",
    "parse_request",
    "request_key",
    "QueryService",
    "ServiceStats",
    "make_workload",
    "save_workload",
    "load_workload",
    "replay",
]
