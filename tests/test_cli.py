"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")

    def test_version_reports_numpy(self, capsys):
        import numpy

        assert main(["version"]) == 0
        assert f"numpy {numpy.__version__}" in capsys.readouterr().out

    def test_census(self, capsys):
        assert main(["census", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "tri-diagonal" in out and "totals:" in out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--n", "256", "--max-p", "16"]) == 0
        out = capsys.readouterr().out
        assert "parallel_IR" in out and "crossover" in out

    def test_scan_add(self, capsys):
        assert main(["scan", "1", "2", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1 3 6"

    def test_scan_max(self, capsys):
        assert main(["scan", "3", "1", "5", "--op", "max"]) == 0
        assert capsys.readouterr().out.strip() == "3 3 5"

    @pytest.mark.parametrize("demo", ["chain", "fibonacci", "scatter"])
    def test_explain(self, demo, capsys):
        assert main(["explain", "--demo", demo, "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "system" in out


class TestSolveCommand:
    def test_solve_ordinary_from_file(self, tmp_path, capsys):
        from repro.core import CONCAT, OrdinaryIRSystem
        from repro.core.serialize import dump_system

        path = str(tmp_path / "system.json")
        dump_system(
            OrdinaryIRSystem.build(
                [("a",), ("b",), ("c",)], [1, 2], [0, 1], CONCAT
            ),
            path,
        )
        assert main(["solve", path, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "A[2] = ('a', 'b', 'c')" in captured.out
        assert "stats" in captured.err

    def test_solve_gir_from_file(self, tmp_path, capsys):
        from repro.core import GIRSystem, modular_mul
        from repro.core.serialize import dump_system

        path = str(tmp_path / "gir.json")
        dump_system(
            GIRSystem.build(
                [2, 3, 1, 1], [2, 3], [1, 2], [0, 1], modular_mul(97)
            ),
            path,
        )
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "A[3] = 18" in out  # 2*3=6, 6*3=18 mod 97


def fig3_system_file(tmp_path, n=300):
    """A serialized Fig-3-shaped workload (maximal FLOAT_MUL chain)."""
    import numpy as np

    from repro.core import FLOAT_MUL, OrdinaryIRSystem
    from repro.core.serialize import dump_system

    path = str(tmp_path / "fig3.json")
    dump_system(
        OrdinaryIRSystem.build(
            np.full(n + 1, 1.0000001), np.arange(1, n + 1), np.arange(n),
            FLOAT_MUL,
        ),
        path,
    )
    return path


class TestJSONOutput:
    def test_solve_json(self, tmp_path, capsys):
        from repro.core import CONCAT, OrdinaryIRSystem
        from repro.core.serialize import dump_system

        path = str(tmp_path / "chain.json")
        dump_system(
            OrdinaryIRSystem.build(
                [(f"s{j}",) for j in range(17)],
                list(range(1, 17)),
                list(range(16)),
                CONCAT,
            ),
            path,
        )
        assert main(["solve", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches_sequential"] is True
        assert len(payload["cells"]) == 17
        assert payload["stats"]["rounds"] == 4  # ceil(log2 16)

    def test_census_json(self, capsys):
        assert main(["census", "--n", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 24
        assert {e["group"] for e in payload} <= {
            "none", "linear", "indexed", "outside-template"
        }
        assert payload[4]["name"] == "tri-diagonal elimination"


class TestObservabilityFlags:
    def test_solve_trace_out_rounds_agree_with_stats(self, tmp_path, capsys):
        """Acceptance: per-round spans in the Chrome trace equal the
        solver's own SolveStats.rounds on the Fig-3 workload."""
        import math

        n = 300
        path = fig3_system_file(tmp_path, n=n)
        # a round budget runs pointer-jumping rounds; by default the
        # chain is one accumulate level
        for flags, strategy, expected in (
            (["--policy-rounds", "64"], "rounds", math.ceil(math.log2(n))),
            ([], "chains", 1),
        ):
            trace_path = str(tmp_path / f"t{strategy}.json")
            assert main(
                ["solve", path, "--json", "--trace-out", trace_path, *flags]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            stats = payload["stats"]
            assert payload["strategy"] == strategy
            with open(trace_path) as handle:
                trace = json.load(handle)
            rounds = [
                e for e in trace["traceEvents"]
                if e.get("name") == "solver.round"
            ]
            assert len(rounds) == stats["rounds"] == expected
            actives = [e["args"]["active"] for e in rounds]
            assert actives == stats["active_per_round"]

    def test_solve_metrics_json(self, tmp_path, capsys):
        path = fig3_system_file(tmp_path, n=32)
        metrics_path = str(tmp_path / "m.json")
        assert main(
            ["solve", path, "--metrics-json", metrics_path,
             "--policy-rounds", "64"]  # a round budget runs rounds
        ) == 0
        capsys.readouterr()
        series = json.loads(open(metrics_path).read())
        by_name = {(e["name"], e["labels"].get("engine")): e for e in series}
        assert by_name[("solver.rounds", "numpy")]["value"] == 5

    def test_census_trace_out_writes_valid_trace(self, tmp_path, capsys):
        # census classification is static, so the trace has no solver
        # spans -- but the flag must still write a well-formed file.
        trace_path = str(tmp_path / "census.json")
        assert main(["census", "--n", "8", "--trace-out", trace_path]) == 0
        capsys.readouterr()
        trace = json.loads(open(trace_path).read())
        assert isinstance(trace["traceEvents"], list)

    def test_fig3_trace_out_records_solver_spans(self, tmp_path, capsys):
        trace_path = str(tmp_path / "fig3.json")
        assert main(
            ["fig3", "--n", "64", "--max-p", "4", "--trace-out", trace_path]
        ) == 0
        capsys.readouterr()
        trace = json.loads(open(trace_path).read())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "solver.round" in names
        metric_names = {m["name"] for m in trace["otherData"]["metrics"]}
        assert "solver.rounds" in metric_names

    def test_observation_disabled_after_run(self, tmp_path, capsys):
        from repro import obs

        path = fig3_system_file(tmp_path, n=8)
        assert main(["solve", path, "--trace-out", str(tmp_path / "t.json")]) == 0
        capsys.readouterr()
        assert not obs.is_enabled()


class TestTraceWrapper:
    def test_traced_solve_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import validate_jsonl

        path = fig3_system_file(tmp_path, n=16)
        jsonl = str(tmp_path / "events.jsonl")
        chrome = str(tmp_path / "trace.json")
        assert main(
            ["trace", "--jsonl", jsonl, "--out", chrome, "solve", path]
        ) == 0
        captured = capsys.readouterr()
        assert "A[16]" in captured.out
        assert "solver.ordinary" in captured.err  # tree summary on stderr
        assert validate_jsonl(jsonl) > 0
        trace = json.loads(open(chrome).read())
        assert any(
            e.get("name") == "solver.round" for e in trace["traceEvents"]
        )

    def test_trace_metrics_json(self, tmp_path, capsys):
        path = fig3_system_file(tmp_path, n=8)
        metrics = str(tmp_path / "m.json")
        assert main(
            ["trace", "--no-summary", "--metrics-json", metrics, "solve", path]
        ) == 0
        capsys.readouterr()
        names = {e["name"] for e in json.loads(open(metrics).read())}
        assert "solver.rounds" in names

    def test_trace_requires_command(self, capsys):
        assert main(["trace"]) == 2
        assert "missing command" in capsys.readouterr().err

    def test_trace_rejects_nesting(self, capsys):
        assert main(["trace", "trace", "version"]) == 2
        assert "nest" in capsys.readouterr().err

    def test_trace_propagates_exit_code(self, capsys):
        assert main(["trace", "--no-summary", "version"]) == 0


class TestObsCommands:
    def _snapshot_file(self, tmp_path, name="snap.json", inc=3):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("engine.solves", backend="numpy").inc(inc)
        reg.histogram("engine.session.latency_s").observe(0.01)
        path = tmp_path / name
        path.write_text(json.dumps(reg.snapshot()))
        return str(path)

    def test_obs_serve_prom_out(self, tmp_path, capsys):
        snap = self._snapshot_file(tmp_path)
        out = str(tmp_path / "metrics.prom")
        assert main(["obs", "serve", "--snapshot", snap,
                     "--prom-out", out]) == 0
        text = open(out).read()
        assert "engine_solves_total" in text
        assert "# TYPE engine_session_latency_s histogram" in text

    def test_obs_serve_missing_snapshot(self, tmp_path, capsys):
        assert main(["obs", "serve", "--snapshot",
                     str(tmp_path / "nope.json")]) == 2
        assert "no such snapshot" in capsys.readouterr().err

    def test_obs_top(self, tmp_path, capsys):
        snap = self._snapshot_file(tmp_path)
        assert main(["obs", "top", "--snapshot", snap]) == 0
        out = capsys.readouterr().out
        assert "2 series" in out
        assert "engine.solves{backend=numpy}" in out

    def test_obs_top_live_metrics_json(self, tmp_path, capsys):
        # the snapshot a traced solve writes feeds obs top directly
        path = fig3_system_file(tmp_path, n=32)
        metrics_path = str(tmp_path / "m.json")
        assert main(["solve", path, "--metrics-json", metrics_path]) == 0
        capsys.readouterr()
        assert main(["obs", "top", "--snapshot", metrics_path]) == 0
        assert "solver.rounds" in capsys.readouterr().out

    def test_obs_diff(self, tmp_path, capsys):
        before = self._snapshot_file(tmp_path, "a.json", inc=3)
        after = self._snapshot_file(tmp_path, "b.json", inc=5)
        assert main(["obs", "diff", before, after]) == 0
        out = capsys.readouterr().out
        assert "1 series changed" in out
        assert "+2" in out

    def test_obs_diff_json(self, tmp_path, capsys):
        before = self._snapshot_file(tmp_path, "a.json", inc=3)
        after = self._snapshot_file(tmp_path, "b.json", inc=5)
        assert main(["obs", "diff", before, after, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        changed = [r for r in rows if r["status"] == "changed"]
        assert changed[0]["name"] == "engine.solves"
        assert changed[0]["delta"] == 2


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["check"],
            ["lint"],
            ["faults", "run", "--plan"],
            ["serve", "--problem"],
        ],
        ids=["solve", "check", "lint", "faults-run", "serve"],
    )
    def test_missing_path_is_a_clean_usage_error(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(argv + [missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {missing}: ")
        assert "Traceback" not in err
