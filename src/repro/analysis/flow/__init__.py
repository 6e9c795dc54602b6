"""Whole-program dataflow analyses for determinism invariants.

Layered on the :mod:`repro.analysis.lint` framework:

* :mod:`~repro.analysis.flow.summary` — per-module fact extraction
  (serializable, cache-friendly);
* :mod:`~repro.analysis.flow.symbols` — project symbol table, import/
  alias/method/higher-order call resolution;
* :mod:`~repro.analysis.flow.callgraph` — resolved call graph;
* :mod:`~repro.analysis.flow.taint` — seed provenance and determinism
  taint;
* :mod:`~repro.analysis.flow.effects` — effect inference, contracts,
  and the committed effects manifest;
* :mod:`~repro.analysis.flow.cache` — the per-file fact cache (module-rule
  results and summaries, keyed by an analyzer fingerprint and content);
* :mod:`~repro.analysis.flow.rules` — the ``flow-*`` project rules.
"""

from repro.analysis.flow.cache import DEFAULT_CACHE_DIR, SummaryCache
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.effects import CONTRACTS, EffectInference
from repro.analysis.flow.summary import ModuleSummary, extract_module
from repro.analysis.flow.symbols import Project, ResolvedCall
from repro.analysis.flow.taint import DeterminismTaint, SeedProvenance, Violation

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SummaryCache",
    "CallGraph",
    "CONTRACTS",
    "EffectInference",
    "ModuleSummary",
    "extract_module",
    "Project",
    "ResolvedCall",
    "DeterminismTaint",
    "SeedProvenance",
    "Violation",
]
