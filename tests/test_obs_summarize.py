"""The trace summary of ``repro-report --trace``, and trace-vs-result
faithfulness."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs import capture, provenance, report
from repro.obs.events import SearchStep, StoreAccess
from repro.obs.trace import JsonlSink
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.desimpl import DesBroadcastSimulation
from repro.sim.engine import run_broadcast

CONFIG = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3))


def _run_line(result) -> str:
    return (
        f"collisions={result.collisions} "
        f"reachability={result.reachability:.4f} "
        f"tx={result.total_tx} rx={result.total_rx}"
    )


@pytest.fixture
def traced_run(tmp_path):
    """One traced vector-engine run: (jsonl path, RunResult)."""
    path = tmp_path / "run.jsonl"
    with capture(JsonlSink(path)):
        result = run_broadcast(ProbabilisticRelay(0.5), CONFIG, 99)
    return path, result


class TestTraceFaithfulness:
    def test_replay_matches_run_result(self, traced_run):
        """The acceptance criterion: totals recomputed from the event
        stream equal what the engine returned."""
        path, result = traced_run
        text = report.render_report(trace_path=path)
        assert f"total collisions (from SlotResolved): {result.collisions}" in text
        informed = int(result.new_informed_by_slot.sum())
        assert f"nodes informed   (from NodeInformed): {informed}" in text
        assert _run_line(result) in text
        assert "WARNING" not in text

    def test_des_replay_reachability_matches(self, tmp_path):
        path = tmp_path / "des.jsonl"
        with capture(JsonlSink(path)):
            result = DesBroadcastSimulation(
                ProbabilisticRelay(0.5), CONFIG, 99
            ).run()
        text = report.render_report(trace_path=path)
        assert _run_line(result) in text
        informed = round(result.reachability * result.n_field_nodes)
        assert f"nodes informed   (from NodeInformed): {informed}" in text
        assert "phase   tx    new  informed" in text
        assert "WARNING" not in text
        kept = [ln for ln in path.read_text().splitlines() if "SlotResolved" not in ln]
        path.write_text("\n".join(kept) + "\n")
        assert "WARNING" in report.render_report(trace_path=path)

    def test_slot_tx_sums_to_total_tx(self, traced_run):
        """Dropping one slot's transmissions breaks the tx total check."""
        path, result = traced_run
        lines = path.read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if "SlotResolved" in ln)
        path.write_text("\n".join(lines[:first] + lines[first + 1 :]) + "\n")
        text = report.render_report(trace_path=path)
        assert "WARNING: transmissions recomputed from the events" in text
        assert f"vs {result.total_tx})" in text


class TestRenderTrace:
    def test_report_contents(self, traced_run):
        path, result = traced_run
        text = report.render_report(trace_path=path)
        assert "=== Trace ===" in text
        assert f"total collisions (from SlotResolved): {result.collisions}" in text
        assert "phase   tx    new  informed" in text
        assert "run complete:" in text
        assert "WARNING" not in text

    def test_truncated_trace_warns(self, traced_run, tmp_path):
        path, result = traced_run
        assert result.collisions > 0  # rho=20, p=0.5 always collides
        lines = path.read_text().splitlines()
        truncated = tmp_path / "cut.jsonl"
        # Keep the RunComplete record but drop every SlotResolved line,
        # so the recomputed totals cannot match it.
        kept = [ln for ln in lines if "SlotResolved" not in ln]
        truncated.write_text("\n".join(kept) + "\n")
        text = report.render_report(trace_path=truncated)
        assert "WARNING" in text

    def test_max_slots_caps_timeline(self, traced_run):
        path, _ = traced_run
        text = report.render_report(trace_path=path, max_slots=2)
        assert "(2 of" in text


class TestStoreAndSearchEvents:
    """StoreAccess and SearchStep events land in the Store and Optimizer
    sections of the same report."""

    @pytest.fixture
    def mixed_trace(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        sink = JsonlSink(path)
        key = "ab" * 32
        for ev in (
            StoreAccess(op="hit", key=key, n_results=20, nbytes=800),
            StoreAccess(op="miss", key=key, n_results=0, nbytes=0),
            StoreAccess(op="miss", key=key, n_results=0, nbytes=0),
            StoreAccess(op="put", key=key, n_results=20, nbytes=1234),
            StoreAccess(op="put", key=key, n_results=20, nbytes=766),
            SearchStep(stage="probe", rung=0, p=0.1, feasible=False, value=float("nan")),
            SearchStep(stage="probe", rung=3, p=0.5, feasible=True, value=12.5),
            SearchStep(stage="verify", rung=3, p=0.5, feasible=True, value=12.1),
        ):
            sink.emit(ev)
        sink.close()
        return path

    def test_store_ops_aggregate(self, mixed_trace):
        text = report.render_report(trace_path=mixed_trace)
        assert "hits            1" in text
        assert "misses          2" in text
        assert "puts            2 (2000 bytes)" in text

    def test_search_steps_kept_in_order(self, mixed_trace):
        text = report.render_report(trace_path=mixed_trace)
        rows = [
            ln.split()
            for ln in text.splitlines()
            if ln.startswith(("  probe", "  verify"))
        ]
        assert [r[0] for r in rows] == ["probe", "probe", "verify"]
        assert rows[1][-1] == "12.5000"

    def test_render_includes_store_and_search(self, mixed_trace):
        text = report.render_report(trace_path=mixed_trace)
        assert "=== Store ===" in text
        assert "puts            2 (2000 bytes)" in text
        assert "search steps: 2 surrogate probes, 1 MC verifications" in text
        assert "verify" in text

    def test_pure_sim_trace_output_unchanged(self, traced_run):
        """A trace without store/search events has no such sections."""
        path, _ = traced_run
        text = report.render_report(trace_path=path)
        assert "=== Store ===" not in text
        assert "=== Optimizer ===" not in text

    def test_engine_trace_has_empty_aggregates(self, traced_run, mixed_trace):
        path, _ = traced_run
        assert "store accesses" not in report.render_report(trace_path=path)
        assert "search steps" not in report.render_report(trace_path=path)
        # ...and a store/search-only trace has no Trace section.
        assert "=== Trace ===" not in report.render_report(trace_path=mixed_trace)


class TestCli:
    def test_trace_path(self, traced_run, capsys):
        path, result = traced_run
        assert report.main(["--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(result.collisions) in out

    def test_manifest_path_and_directory(self, tmp_path, capsys):
        provenance.write_manifest(tmp_path, "sweep_grid", seed=5, config=CONFIG)
        assert report.main(["--manifest", str(tmp_path / "manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "kind=sweep_grid" in out
        assert "versions: " in out and "numpy=" in out
        assert "config (SimulationConfig):" in out
        assert report.main(["--manifest", str(tmp_path)]) == 0
        assert "seed entropy: 5" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert report.main(["--trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_garbage_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "NoSuchEvent"}\n')
        assert report.main(["--trace", str(bad)]) == 1
        assert "unknown trace event type" in capsys.readouterr().err

    def test_runs_as_module(self, traced_run):
        import subprocess
        import sys

        path, _ = traced_run
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", "--trace", str(path),
             "--max-slots", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "run complete:" in proc.stdout
        assert "(3 of" in proc.stdout
