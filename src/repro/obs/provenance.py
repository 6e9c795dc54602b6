"""Provenance manifests: what code, config and entropy produced a result.

A manifest is one JSON document written next to an experiment's outputs
that answers, months later, "how do I re-run exactly this?": the full
configuration, the root seed entropy (and spawn key, for seeds that
were themselves spawned), the git commit, the package versions, and
wall and CPU time.  :func:`config_from_manifest` and
:func:`seed_from_manifest` close the loop — a loaded manifest
reconstructs the objects needed to reproduce the run bit-for-bit.

The writers in :mod:`repro.sim.runner` (``replicate``/``sweep_grid``
with ``manifest_dir=``) and the ``repro-figures`` CLI (``--save-json``)
call :func:`write_manifest`; :func:`repro.experiments.io.load_manifest`
re-exports the loader next to the figure loaders.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_NAME",
    "start_clock",
    "write_manifest",
    "load_manifest",
    "config_from_manifest",
    "seed_from_manifest",
]

MANIFEST_SCHEMA = "repro.manifest/1"
MANIFEST_NAME = "manifest.json"


def _jsonable(value: Any) -> Any:
    """Recursively convert a value into JSON-safe primitives."""
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # numpy scalars / arrays without importing numpy here
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return _jsonable(value.item())
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _jsonable(tolist())
    return repr(value)


def _git_info() -> dict | None:
    """Commit SHA and dirty flag of the source tree, or None outside git."""
    cwd = Path(__file__).resolve().parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
        return {
            "sha": sha.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _package_versions() -> dict:
    from importlib import metadata

    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "networkx", "repro"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            module = sys.modules.get(pkg)
            versions[pkg] = getattr(module, "__version__", None)
    return versions


def start_clock() -> tuple[float, float]:
    """A (wall, cpu) clock pair for ``write_manifest(started=...)``."""
    return (time.perf_counter(), time.process_time())


def write_manifest(
    directory: str | Path,
    kind: str,
    *,
    config: Any = None,
    seed: Any = None,
    params: dict | None = None,
    started: tuple[float, float] | None = None,
    filename: str = MANIFEST_NAME,
) -> Path:
    """Write a provenance manifest into ``directory``; returns its path.

    Parameters
    ----------
    directory:
        Output directory (created if missing); the manifest sits next to
        the artifacts it describes.
    kind:
        What produced the outputs (``"replicate"``, ``"sweep_grid"``,
        ``"runall"``, ...).
    config:
        The :class:`~repro.sim.config.SimulationConfig` or
        :class:`~repro.analysis.config.AnalysisConfig` of the run; any
        dataclass serializes, and :func:`config_from_manifest` restores
        the two known kinds.
    seed:
        The root seed in any :data:`~repro.utils.rng.SeedLike` form; its
        entropy and spawn key are recorded so
        :func:`seed_from_manifest` rebuilds the identical sequence.
    params:
        Free-form invocation parameters (grids, replications, engine,
        figure names, ...).
    started:
        A :func:`start_clock` pair taken before the work, for wall/CPU
        accounting.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    doc: dict = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "created_unix": time.time(),
        "argv": list(sys.argv),
        "platform": platform.platform(),
        "versions": _package_versions(),
        "git": _git_info(),
    }
    if seed is not None:
        from repro.utils.rng import as_seed_sequence

        seq = as_seed_sequence(seed)
        doc["seed"] = {
            "entropy": _jsonable(seq.entropy),
            "spawn_key": list(seq.spawn_key),
        }
    if config is not None:
        doc["config_class"] = type(config).__name__
        doc["config"] = _jsonable(config)
    if params is not None:
        doc["params"] = _jsonable(params)
    if started is not None:
        wall0, cpu0 = started
        doc["wall_time_s"] = time.perf_counter() - wall0
        doc["cpu_time_s"] = time.process_time() - cpu0

    path = directory / filename
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: str | Path) -> dict:
    """Load a manifest, accepting the file or its containing directory."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    doc = json.loads(path.read_text())
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"not a repro manifest (schema={doc.get('schema')!r}) at {path}"
        )
    return doc


def config_from_manifest(manifest: dict) -> Any:
    """Reconstruct the recorded configuration object.

    Supports the two config kinds the experiment layer writes
    (``SimulationConfig`` and ``AnalysisConfig``); other recorded
    dataclasses come back as plain dicts.
    """
    cls_name = manifest.get("config_class")
    data = manifest.get("config")
    if data is None:
        raise ValueError("manifest records no config")
    if cls_name == "AnalysisConfig":
        from repro.analysis.config import AnalysisConfig

        return AnalysisConfig(**data)
    if cls_name == "SimulationConfig":
        from repro.analysis.config import AnalysisConfig
        from repro.sim.config import SimulationConfig

        data = dict(data)
        analysis = AnalysisConfig(**data.pop("analysis"))
        return SimulationConfig(analysis=analysis, **data)
    return data


def seed_from_manifest(manifest: dict) -> np.random.SeedSequence:
    """Rebuild the run's root :class:`numpy.random.SeedSequence`."""
    import numpy as np

    info = manifest.get("seed")
    if info is None:
        raise ValueError("manifest records no seed")
    entropy = info["entropy"]
    if isinstance(entropy, list):
        entropy = [int(e) for e in entropy]
    # repro: allow(flow-seed-provenance) — replay boundary: the manifest
    # *is* the recorded seed, so rebuilding from its entropy/spawn_key
    # is how a past run's root seed re-enters the seed-typed world.
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(int(k) for k in info.get("spawn_key", ()))
    )
