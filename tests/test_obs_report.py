"""``repro-report``: span analysis, section rendering, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.analysis.config import AnalysisConfig
from repro.obs import report, spans
from repro.obs.export import SpanJsonlSink
from repro.obs.spans import SpanEvent
from repro.sim.config import SimulationConfig
from repro.sim.runner import sweep_grid

SEED = 20050113
CFG = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=20.0, slots=3))


def _span(name, *, start, dur, span_id, parent_id=None, cat="t", **counters):
    return SpanEvent(
        name=name,
        cat=cat,
        start=start,
        dur=dur,
        span_id=span_id,
        parent_id=parent_id,
        pid=1,
        tid=1,
        counters={k: float(v) for k, v in counters.items()},
    )


@pytest.fixture
def tree():
    """root(1.0s) -> a(0.6s) -> leaf(0.2s); root -> b(0.1s)."""
    return [
        _span("root", start=0.0, dur=1.0, span_id=1),
        _span("a", start=0.1, dur=0.6, span_id=2, parent_id=1),
        _span("leaf", start=0.2, dur=0.2, span_id=3, parent_id=2),
        _span("b", start=0.8, dur=0.1, span_id=4, parent_id=1),
    ]


class TestSpanAnalysis:
    def test_self_times(self, tree):
        selfs = report.self_times(tree)
        assert selfs[1] == pytest.approx(1.0 - 0.6 - 0.1)
        assert selfs[2] == pytest.approx(0.4)
        assert selfs[3] == pytest.approx(0.2)

    def test_self_time_clamped_at_zero(self):
        # Two overlapping (threaded) children outlast the parent.
        spans_ = [
            _span("p", start=0.0, dur=0.5, span_id=1),
            _span("c1", start=0.0, dur=0.4, span_id=2, parent_id=1),
            _span("c2", start=0.0, dur=0.4, span_id=3, parent_id=1),
        ]
        assert report.self_times(spans_)[1] == 0.0

    def test_aggregate_sorts_by_self_time(self, tree):
        rows = report.aggregate_spans(tree)
        assert rows[0][0] == "a"  # 0.4s self beats root's 0.3s
        names = [r[0] for r in rows]
        assert names.index("a") < names.index("root") < names.index("leaf")

    def test_tree_lines_nested_with_shares(self, tree):
        lines = report.span_tree_lines(tree)
        assert lines[0].startswith("root")
        assert lines[1].startswith("  a")
        assert lines[2].startswith("    leaf")
        assert "100.0%" in lines[0]
        assert "60.0%" in lines[1]

    def test_orphan_promoted_to_root(self):
        orphan = [_span("lost", start=0.0, dur=0.1, span_id=7, parent_id=99)]
        lines = report.span_tree_lines(orphan)
        assert lines[0].startswith("lost")

    def test_sibling_elision(self):
        kids = [
            _span(f"k{i}", start=0.1 * i, dur=0.01, span_id=i + 2, parent_id=1)
            for i in range(15)
        ]
        spans_ = [_span("root", start=0.0, dur=2.0, span_id=1), *kids]
        text = "\n".join(report.span_tree_lines(spans_, max_children=12))
        assert "… 3 more siblings" in text

    def test_render_spans_empty(self):
        assert report.render_spans([]) == "no spans recorded"


class TestSections:
    def test_store_breakdown_from_span_counters(self):
        spans_ = [
            _span("store.lookup", start=0, dur=0.1, span_id=1, cat="store",
                  hits=7, misses=3, corrupt=0),
            _span("store.put", start=0.2, dur=0.1, span_id=2, cat="store", nbytes=500),
            _span("store.put", start=0.4, dur=0.1, span_id=3, cat="store", nbytes=700),
        ]
        text = report.render_store_breakdown(spans_, [])
        assert "hits            7 (70.0% hit)" in text
        assert "misses          3" in text
        assert "puts            2 (1200 bytes)" in text

    def test_store_breakdown_prefers_trace_events(self):
        from repro.obs.events import StoreAccess

        spans_ = [
            _span("store.lookup", start=0, dur=0.1, span_id=1, hits=99, misses=0)
        ]
        events = [StoreAccess(op="miss", key="x" * 64, n_results=0, nbytes=0)]
        text = report.render_store_breakdown(spans_, events)
        assert "misses          1" in text
        assert "hits            0" in text

    def test_store_breakdown_none_without_data(self):
        assert report.render_store_breakdown([], []) is None

    def test_search_steps_table(self):
        from repro.obs.events import SearchStep

        events = [
            SearchStep(stage="probe", rung=0, p=0.1, feasible=False, value=float("nan")),
            SearchStep(stage="verify", rung=2, p=0.5, feasible=True, value=3.25),
        ]
        text = report.render_search_steps(events)
        assert "1 surrogate probes, 1 MC verifications" in text
        assert "nan" in text and "3.2500" in text
        assert report.render_search_steps([]) is None

    def test_perf_deltas_with_alias(self):
        bench = {
            "current": {"m::fast": 1.0, "m::base": 2.0},
            "seed": {"m::fast": "baseline:m::base", "m::base": 2.0},
        }
        text = report.render_perf_deltas(bench)
        assert "-50.0%" in text  # fast is half of its alias baseline
        assert "+0.0%" in text or "-0.0%" in text

    def test_history_sparkline(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        with hist.open("w") as fh:
            for i, v in enumerate([1.0, 2.0, 4.0]):
                fh.write(json.dumps(
                    {"unix": i, "sha": f"sha{i}" * 5, "medians": {"m::b": v}}
                ) + "\n")
        text = report.render_history(hist)
        assert "3 runs" in text
        assert "▁" in text and "█" in text
        assert "4s" in text or "4.0" in text or "4e" in text


class TestFusedReport:
    @pytest.fixture
    def artifacts(self, tmp_path):
        """A real profiled sweep: spans.jsonl + manifest directory."""
        run_dir = tmp_path / "run"
        spans_path = run_dir / "spans.jsonl"
        run_dir.mkdir()
        with spans.capture_spans(SpanJsonlSink(spans_path)):
            sweep_grid(
                CFG, [20.0], [0.3, 0.7], 3, seed=SEED,
                store=tmp_path / "store", manifest_dir=run_dir,
            )
        return spans_path, run_dir / "manifest.json"

    def test_render_report_sections(self, artifacts):
        spans_path, manifest_path = artifacts
        text = report.render_report(
            spans_path=spans_path, manifest_path=manifest_path
        )
        assert "=== Run ===" in text
        assert "=== Wall-time attribution ===" in text
        assert "=== Store ===" in text
        assert "kind=sweep_grid" in text
        assert "sweep.grid" in text

    def test_markdown_mode(self, artifacts):
        spans_path, _ = artifacts
        text = report.render_report(spans_path=spans_path, markdown=True)
        assert "## Wall-time attribution" in text
        assert "```" in text

    def test_cli_success(self, artifacts, capsys):
        spans_path, manifest_path = artifacts
        rc = report.main(
            ["--spans", str(spans_path), "--manifest", str(manifest_path)]
        )
        assert rc == 0
        assert "Wall-time attribution" in capsys.readouterr().out

    def test_cli_no_inputs_exits_2(self, capsys):
        assert report.main([]) == 2
        assert "at least one input" in capsys.readouterr().err

    def test_cli_missing_file_exits_2(self, tmp_path, capsys):
        assert report.main(["--spans", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such spans file" in capsys.readouterr().err

    def test_entry_point_runs_as_module(self, artifacts):
        import subprocess
        import sys

        spans_path, _ = artifacts
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", "--spans", str(spans_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "span tree" in proc.stdout

    def test_module_run_imports_report_once(self):
        """``python -m repro.obs.report`` must not find the module
        already imported by its package (runpy's RuntimeWarning)."""
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.obs.report",
                "--help",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestAcceptance:
    """The PR's acceptance criterion: a cold profiled sweep exports a
    Chrome trace whose span tree accounts for >=90% of wall time, with
    store and engine phases attributed, and repro-report exits 0."""

    def test_cold_sweep_profile_coverage(self, tmp_path):
        import time

        from repro.obs.export import read_spans_jsonl, write_chrome_trace

        spans_path = tmp_path / "spans.jsonl"
        t0 = time.perf_counter()
        with spans.capture_spans(SpanJsonlSink(spans_path)):
            grid = sweep_grid(
                CFG, [20.0, 30.0], [0.3, 0.7], 5, seed=SEED,
                store=tmp_path / "store", manifest_dir=tmp_path,
            )
        wall = time.perf_counter() - t0
        assert len(grid) == 4

        recorded = list(read_spans_jsonl(spans_path))
        roots = [s for s in recorded if s.parent_id is None]
        assert [r.name for r in roots] == ["sweep.grid"]
        assert roots[0].dur >= 0.9 * wall

        cats = {s.cat for s in recorded}
        assert {"runner", "store", "engine"} <= cats

        trace_path = write_chrome_trace(recorded, tmp_path / "trace.json")
        doc = json.loads(trace_path.read_text())
        assert len(doc["traceEvents"]) == len(recorded)
        assert all(ev["ph"] == "X" for ev in doc["traceEvents"])

        rc = report.main(
            [
                "--spans", str(spans_path),
                "--manifest", str(tmp_path / "manifest.json"),
            ]
        )
        assert rc == 0
