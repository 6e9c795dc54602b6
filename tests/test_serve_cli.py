"""repro-serve CLI, workload files, and the wire protocol."""

import io
import json

import pytest

from repro.errors import ConfigurationError, ServeError
from repro.serve import (
    QueryService,
    make_workload,
    load_workload,
    parse_request,
    request_key,
    save_workload,
)
from repro.serve.cli import main as serve_cli
from repro.serve.workload import _percentile


class TestParseRequest:
    def test_scalar_p_becomes_ps(self):
        req = parse_request({"kind": "bound", "rho": 20.0, "p": 0.5, "seed": 1})
        assert req.ps == (0.5,)

    def test_objective_defaults_to_canonical_grid(self):
        req = parse_request({"kind": "objective", "rho": 20.0, "seed": 1})
        assert len(req.ps) == 9

    def test_json_string_accepted(self):
        req = parse_request(
            json.dumps({"kind": "bound", "rho": 20.0, "p": 0.5, "seed": 1})
        )
        assert req.rho == 20.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ServeError, match="unknown request field"):
            parse_request(
                {"kind": "bound", "rho": 20.0, "p": 0.5, "seed": 1, "rho_": 1}
            )

    def test_p_and_ps_mutually_exclusive(self):
        with pytest.raises(ServeError, match="not both"):
            parse_request(
                {"kind": "bound", "rho": 20.0, "p": 0.5, "ps": [0.5], "seed": 1}
            )

    def test_bound_without_p_rejected(self):
        with pytest.raises(ServeError, match="needs a p"):
            parse_request({"kind": "bound", "rho": 20.0, "seed": 1})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServeError, match="missing required field 'seed'"):
            parse_request({"kind": "bound", "rho": 20.0, "p": 0.5})

    def test_undecodable_line_rejected(self):
        with pytest.raises(ServeError, match="undecodable"):
            parse_request("{nope")

    def test_bad_values_are_configuration_errors(self):
        with pytest.raises(ConfigurationError, match="p must be in"):
            parse_request({"kind": "bound", "rho": 20.0, "p": 1.5, "seed": 1})
        with pytest.raises(ConfigurationError, match="rho must be"):
            parse_request({"kind": "bound", "rho": -1.0, "p": 0.5, "seed": 1})
        with pytest.raises(ConfigurationError, match="unknown request kind"):
            parse_request({"kind": "best", "rho": 20.0, "p": 0.5, "seed": 1})
        with pytest.raises(ConfigurationError, match="engine='foo' is invalid"):
            parse_request(
                {"kind": "bound", "rho": 20.0, "p": 0.5, "seed": 1, "engine": "foo"}
            )
        with pytest.raises(ConfigurationError, match="alignment='slot' is invalid"):
            parse_request(
                {"kind": "bound", "rho": 20.0, "p": 0.5, "seed": 1, "alignment": "slot"}
            )

    def test_request_key_stable_and_seed_sensitive(self):
        doc = {"kind": "bound", "rho": 20.0, "p": 0.5, "seed": 1}
        a = request_key(parse_request(doc))
        b = request_key(parse_request(dict(doc)))
        c = request_key(parse_request(dict(doc, seed=2)))
        assert a == b
        assert a != c
        assert len(a) == 64


class TestWorkload:
    def test_roundtrip(self, tmp_path):
        requests = make_workload(4, duplicates=3, replications=2)
        path = save_workload(tmp_path / "w.jsonl", requests)
        assert load_workload(path) == requests

    def test_duplicates_interleaved(self):
        requests = make_workload(4, duplicates=2)
        assert requests[0] == requests[4]
        assert requests[1] == requests[5]
        assert requests[0] != requests[1]

    def test_every_request_parses(self):
        for doc in make_workload(20, duplicates=1):
            parse_request(doc)

    def test_empty_and_malformed_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n\n")
        with pytest.raises(ServeError, match="empty"):
            load_workload(empty)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "bound"}\nnot json\n')
        with pytest.raises(ServeError, match="undecodable workload line 2"):
            load_workload(bad)

    def test_bad_generation_parameters(self):
        with pytest.raises(ServeError, match="must be > 0"):
            make_workload(0)

    def test_percentile_interpolates(self):
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert _percentile([5.0], 0.95) == 5.0


class TestStdioLoop:
    def test_json_lines_in_json_lines_out(self, tmp_path):
        import asyncio

        from repro.serve.cli import _serve_stdio

        good = json.dumps(
            {
                "kind": "bound",
                "rho": 15.0,
                "p": 0.5,
                "seed": 7,
                "replications": 2,
                "n_rings": 3,
            }
        )
        stdin = io.StringIO(good + "\n" + good + "\n\nnot json\n")
        stdout = io.StringIO()

        async def _go():
            async with QueryService(tmp_path / "store") as service:
                return await _serve_stdio(service, stdin, stdout)

        assert asyncio.run(_go()) == 0
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert sorted(doc["seq"] for doc in lines) == [1, 2, 3]
        by_seq = {doc["seq"]: doc for doc in lines}
        assert by_seq[1]["kind"] == "bound"
        assert by_seq[1]["id"] == by_seq[2]["id"]  # identical queries
        assert by_seq[3]["error"].startswith("ServeError")


class TestBenchCommand:
    @pytest.fixture
    def workload_file(self, tmp_path):
        requests = make_workload(4, duplicates=2, replications=2, n_rings=3)
        return save_workload(tmp_path / "w.jsonl", requests)

    def test_make_workload_mode(self, tmp_path, capsys):
        out = tmp_path / "w.jsonl"
        code = serve_cli(
            [
                str(tmp_path / "store"),
                "--make-workload",
                str(out),
                "--queries",
                "6",
                "--duplicates",
                "3",
            ]
        )
        assert code == 0
        assert len(load_workload(out)) == 18
        assert "18 requests (6 distinct x 3)" in capsys.readouterr().out

    def test_bench_reports_and_merges_perf(
        self, tmp_path, workload_file, capsys
    ):
        perf = tmp_path / "perf.json"
        perf.write_text(json.dumps({"current": {"existing": 1.0}, "seed": {}}))
        trace = tmp_path / "trace.json"
        code = serve_cli(
            [
                str(tmp_path / "store"),
                "--bench",
                str(workload_file),
                "--perf-json",
                str(perf),
                "--trace",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cold:" in out and "warm:" in out
        ledger = json.loads(perf.read_text())
        current = ledger["current"]
        assert current["existing"] == 1.0  # merge, not overwrite
        for key in (
            "serve.bench.cold_p50_s",
            "serve.bench.cold_total_s",
            "serve.bench.cold_coalescing_ratio",
            "serve.bench.warm_p50_s",
            "serve.bench.warm_p95_s",
        ):
            assert key in current
        # Duplicates interleaved → the cold pass must coalesce.
        assert current["serve.bench.cold_coalescing_ratio"] > 1.5
        assert current["serve.bench.warm_p50_s"] < 1.0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]

    def test_bench_empty_workload_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "w.jsonl"
        empty.write_text("\n")
        code = serve_cli([str(tmp_path / "store"), "--bench", str(empty)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
