"""Progress reporting: the sweep hook, stage lines, and the battery CLI."""

from __future__ import annotations

import io

from repro.analysis.config import AnalysisConfig
from repro.experiments import runall
from repro.experiments.figures import FIGURES
from repro.obs.progress import SweepProgress, stage
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate, sweep_grid
from repro.utils.parallel import parallel_map


class TestSweepProgress:
    def test_final_line_always_prints(self):
        out = io.StringIO()
        prog = SweepProgress(4, "test", min_interval=1e9, stream=out)
        prog.update(2, 4, [])
        prog.update(4, 4, [])
        text = out.getvalue()
        assert "[test] 4/4 runs (100%)" in text

    def test_throttling(self):
        out = io.StringIO()
        prog = SweepProgress(100, min_interval=1e9, stream=out)
        for i in range(1, 100):
            prog.update(i, 100, [])
        assert out.getvalue() == ""  # nothing but the final line ever prints

    def test_aggregates_run_results(self, small_sim_config):
        out = io.StringIO()
        results = replicate(ProbabilisticRelay(0.5), small_sim_config, 2, 7)
        prog = SweepProgress(2, min_interval=0.0, stream=out)
        prog.update(1, 2, results[:1])
        prog.update(2, 2, results[1:])
        text = out.getvalue()
        assert "collisions/run" in text
        assert "mean reach" in text
        assert "eta" in text


class TestStage:
    def test_three_shapes(self):
        out = io.StringIO()
        stage(1, 3, "fig5a", stream=out)
        stage(1, 3, "fig5a", elapsed=2.0, stream=out)
        stage(2, 3, "fig5b", error="ValueError: nope", stream=out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "[1/3] fig5a ..."
        assert lines[1] == "[1/3] fig5a done in 2.0s"
        assert lines[2] == "[2/3] fig5b FAILED: ValueError: nope"

    def test_long_durations_humanized(self):
        out = io.StringIO()
        stage(1, 1, "x", elapsed=3900.0, stream=out)
        assert "1.1h" in out.getvalue()


class TestParallelMapHook:
    def test_serial_path_calls_per_item(self):
        calls = []
        out = parallel_map(
            _square, [1, 2, 3], workers=1, progress=lambda d, t, r: calls.append((d, t, list(r)))
        )
        assert out == [1, 4, 9]
        assert calls == [(1, 3, [1]), (2, 3, [4]), (3, 3, [9])]

    def test_pool_path_reports_all_and_preserves_order(self):
        seen = {"done": 0}

        def hook(done, total, results):
            seen["done"] = max(seen["done"], done)
            assert total == 20

        out = parallel_map(_square, list(range(20)), workers=2, progress=hook)
        assert out == [i * i for i in range(20)]
        assert seen["done"] == 20


def _square(x):
    return x * x


class TestSweepGridProgress:
    def test_progress_lines_on_stderr(self, capsys):
        config = SimulationConfig(
            analysis=AnalysisConfig(n_rings=3, rho=10.0, slots=3)
        )
        sweep_grid(config, [10.0], [0.5], 2, seed=3, progress=True)
        err = capsys.readouterr().err
        assert "[sweep]" in err
        assert "2/2 runs (100%)" in err

    def test_silent_by_default(self, capsys):
        config = SimulationConfig(
            analysis=AnalysisConfig(n_rings=3, rho=10.0, slots=3)
        )
        sweep_grid(config, [10.0], [0.5], 2, seed=3)
        assert capsys.readouterr().err == ""


class TestRunallBattery:
    def test_stage_lines_and_exit_zero(self, capsys):
        assert runall.main(["--figures", "fig4b"]) == 0
        captured = capsys.readouterr()
        assert "[1/1] fig4b ..." in captured.err
        assert "[1/1] fig4b done in" in captured.err

    def test_failing_figure_exits_one_with_message(self, capsys, monkeypatch):
        def boom(scale):
            raise RuntimeError("synthetic figure failure")

        monkeypatch.setitem(FIGURES, "figboom", boom)
        code = runall.main(["--figures", "fig4b,figboom"])
        captured = capsys.readouterr()
        assert code == 1
        # The broken figure is reported clearly...
        assert "figboom FAILED: RuntimeError: synthetic figure failure" in captured.err
        assert "error: 1/2 figure(s) failed" in captured.err
        # ...and the healthy one still rendered.
        assert "fig4b" in captured.out

    def test_unknown_figure_exits_two(self, capsys):
        assert runall.main(["--figures", "nope"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_save_json_writes_manifest(self, tmp_path, capsys):
        from repro.experiments.io import load_figures_with_manifest

        out_dir = tmp_path / "out"
        assert (
            runall.main(["--figures", "fig4b", "--save-json", str(out_dir)]) == 0
        )
        capsys.readouterr()
        figures, manifest = load_figures_with_manifest(out_dir)
        assert "fig4b" in figures
        assert manifest is not None
        assert manifest["kind"] == "experiments.runall"
        assert manifest["params"]["figures"] == ["fig4b"]
        assert manifest["params"]["failed"] == []
