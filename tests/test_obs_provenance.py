"""Provenance manifests: writing, loading, and full reproduction."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs import capture, capture_spans, provenance
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.runner import replicate, sweep_grid


@pytest.fixture
def sim_config():
    return SimulationConfig(
        analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3), carrier_sense=True
    )


class TestWriteLoad:
    def test_basic_document(self, tmp_path, sim_config):
        path = provenance.write_manifest(
            tmp_path,
            "replicate",
            config=sim_config,
            seed=42,
            params={"replications": 3},
            started=provenance.start_clock(),
        )
        assert path == tmp_path / provenance.MANIFEST_NAME
        doc = provenance.load_manifest(path)
        assert doc["schema"] == provenance.MANIFEST_SCHEMA
        assert doc["kind"] == "replicate"
        assert doc["config_class"] == "SimulationConfig"
        assert doc["seed"] == {"entropy": 42, "spawn_key": []}
        assert doc["params"] == {"replications": 3}
        assert doc["wall_time_s"] >= 0.0
        assert doc["cpu_time_s"] >= 0.0
        assert "python" in doc["versions"]

    def test_load_accepts_directory(self, tmp_path):
        provenance.write_manifest(tmp_path, "x")
        assert provenance.load_manifest(tmp_path)["kind"] == "x"

    def test_load_rejects_other_json(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a repro manifest"):
            provenance.load_manifest(bad)

    def test_git_sha_recorded(self, tmp_path):
        doc = provenance.load_manifest(provenance.write_manifest(tmp_path, "x"))
        # The repo under test is a git checkout, so the SHA must resolve.
        assert doc["git"] is not None
        assert len(doc["git"]["sha"]) == 40

    def test_document_is_pure_json(self, tmp_path, sim_config):
        path = provenance.write_manifest(
            tmp_path,
            "x",
            config=sim_config,
            params={"arr": np.arange(3), "f": np.float64(1.5), "nan": float("nan")},
        )
        doc = json.loads(path.read_text())
        assert doc["params"]["arr"] == [0, 1, 2]
        assert doc["params"]["f"] == 1.5
        assert doc["params"]["nan"] is None


class TestReconstruction:
    def test_config_round_trip_simulation(self, tmp_path, sim_config):
        provenance.write_manifest(tmp_path, "x", config=sim_config)
        restored = provenance.config_from_manifest(provenance.load_manifest(tmp_path))
        assert restored == sim_config

    def test_config_round_trip_analysis(self, tmp_path):
        cfg = AnalysisConfig(n_rings=4, rho=60.0, slots=3)
        provenance.write_manifest(tmp_path, "x", config=cfg)
        restored = provenance.config_from_manifest(provenance.load_manifest(tmp_path))
        assert restored == cfg

    def test_config_from_manifest_does_not_mutate(self, tmp_path, sim_config):
        provenance.write_manifest(tmp_path, "x", config=sim_config)
        doc = provenance.load_manifest(tmp_path)
        provenance.config_from_manifest(doc)
        assert "analysis" in doc["config"]  # loader must not pop the caller's dict

    def test_seed_round_trip_with_spawn_key(self, tmp_path):
        child = np.random.SeedSequence(1234).spawn(3)[2]
        provenance.write_manifest(tmp_path, "x", seed=child)
        restored = provenance.seed_from_manifest(provenance.load_manifest(tmp_path))
        assert restored.entropy == child.entropy
        assert restored.spawn_key == child.spawn_key
        assert (
            restored.generate_state(4).tolist() == child.generate_state(4).tolist()
        )

    def test_missing_sections_raise(self, tmp_path):
        provenance.write_manifest(tmp_path, "x")
        doc = provenance.load_manifest(tmp_path)
        with pytest.raises(ValueError, match="no config"):
            provenance.config_from_manifest(doc)
        with pytest.raises(ValueError, match="no seed"):
            provenance.seed_from_manifest(doc)


class TestRunnerManifests:
    def test_replicate_writes_manifest(self, tmp_path, sim_config):
        results = replicate(
            ProbabilisticRelay(0.5), sim_config, 2, 11, manifest_dir=tmp_path
        )
        doc = provenance.load_manifest(tmp_path)
        assert doc["kind"] == "replicate"
        assert doc["params"]["replications"] == 2
        assert doc["params"]["engine"] == "vector"
        assert len(results) == 2

    def test_manifest_carries_nothing_from_an_earlier_region(
        self, tmp_path, sim_config
    ):
        """A manifest describes its own call only: an instrumented region
        run earlier in the process leaves nothing in it, and neither a
        result nor a manifest has a field for process-wide telemetry."""
        policy = ProbabilisticRelay(0.5)
        replicate(policy, sim_config, 2, 11, manifest_dir=tmp_path / "alone")
        with capture(), capture_spans() as buf:
            replicate(policy, sim_config, 3, 5)
        assert sum(s.counters["reps"] for s in buf.named("engine.run_batch")) == 3
        replicate(policy, sim_config, 2, 11, manifest_dir=tmp_path / "after")

        volatile = {"created_unix", "wall_time_s", "cpu_time_s"}
        alone, after = (
            {
                k: v
                for k, v in provenance.load_manifest(tmp_path / d).items()
                if k not in volatile
            }
            for d in ("alone", "after")
        )
        assert after == alone
        assert "metrics" not in {f.name for f in dataclasses.fields(RunResult)}
        with pytest.raises(TypeError):
            provenance.write_manifest(tmp_path, "replicate", metrics={"runs": 3})

    def test_sweep_grid_manifest_reproduces_run(self, tmp_path, sim_config):
        grid = sweep_grid(
            sim_config, [20.0], [0.4, 0.8], 2, seed=77, manifest_dir=tmp_path
        )
        doc = provenance.load_manifest(tmp_path)
        assert doc["kind"] == "sweep_grid"

        # Close the loop: rebuild config + seed + grids from the manifest
        # alone and re-run; every replication must match bit for bit.
        cfg2 = provenance.config_from_manifest(doc)
        seed2 = provenance.seed_from_manifest(doc)
        grid2 = sweep_grid(
            cfg2,
            doc["params"]["rho_grid"],
            doc["params"]["p_grid"],
            doc["params"]["replications"],
            seed=seed2,
        )
        assert grid.keys() == grid2.keys()
        for key in grid:
            for a, b in zip(grid[key], grid2[key], strict=True):
                assert np.array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
                assert np.array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
                assert a.collisions == b.collisions
                assert a.total_tx == b.total_tx
                assert a.seed_entropy == b.seed_entropy
