"""The repro-optimize console script: arguments, output, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.optimize.cli import main

FAST = [
    "--rho",
    "20",
    "--n-rings",
    "3",
    "--seed",
    "7",
    "--resolution",
    "0.05",
    "--restarts",
    "0",
    "--replications",
    "2",
    "--max-verify",
    "2",
]


class TestArguments:
    def test_objective_required(self, capsys):
        assert main(FAST + ["--max-latency", "5"]) == 2
        assert "--objective" in capsys.readouterr().err

    def test_resume_requires_store(self, capsys):
        argv = FAST + ["--objective", "reachability", "--resume"]
        assert main(argv) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_unknown_objective(self, capsys):
        argv = FAST + ["--objective", "throughput"]
        assert main(argv) == 2
        assert "unknown objective" in capsys.readouterr().err

    def test_bad_bound(self, capsys):
        argv = FAST + ["--objective", "latency", "--min-reach", "1.5"]
        assert main(argv) == 2
        assert "reachability" in capsys.readouterr().err

    def test_comma_separated_objectives(self, capsys):
        argv = FAST + ["--objective", "latency,energy", "--min-reach", "0.5", "--no-verify"]
        assert main(argv) == 0
        assert "minimize latency, energy" in capsys.readouterr().out

    def test_maximized_objective_reads_maximize(self, capsys):
        argv = FAST + ["--objective", "reachability", "--max-latency", "5", "--no-verify"]
        assert main(argv) == 0
        assert "query: maximize reachability  subject to latency <= 5" in capsys.readouterr().out


class TestReports:
    def test_human_report(self, capsys):
        argv = FAST + ["--objective", "reachability", "--max-latency", "5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "frontier:" in out
        assert "best p:" in out
        assert "simulation" in out

    def test_no_verify_reports_surrogate(self, capsys):
        argv = FAST + [
            "--objective",
            "reachability",
            "--max-latency",
            "5",
            "--no-verify",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulator runs" in out
        assert "surrogate" in out

    def test_json_report(self, capsys):
        argv = FAST + [
            "--objective",
            "reachability",
            "--max-latency",
            "5",
            "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]["bounds"] == {"latency": 5.0}
        assert payload["query"]["objectives"] == ["reachability"]
        assert 0.0 < payload["best_p"] <= 1.0
        assert payload["sim_tasks"] > 0

    def test_manifest_dir(self, tmp_path, capsys):
        argv = FAST + [
            "--objective",
            "reachability",
            "--max-latency",
            "5",
            "--no-verify",
            "-o",
            str(tmp_path),
        ]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["kind"] == "optimize"

    def test_empty_frontier_exits_one(self, capsys):
        argv = FAST + [
            "--objective",
            "energy",
            "--min-reach",
            "0.999",
            "--max-latency",
            "0.5",
            "--no-verify",
        ]
        assert main(argv) == 1
        assert "EMPTY" in capsys.readouterr().out


class TestStore:
    def test_warm_store_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = FAST + [
            "--objective",
            "reachability",
            "--max-latency",
            "5",
            "--store",
            store,
            "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second


def test_module_entry_point():
    import repro.optimize.__main__  # noqa: F401  (import side effects only)


@pytest.mark.parametrize("flag", ["--help"])
def test_help_exits_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert "repro-optimize" in capsys.readouterr().out
