"""The results ledger: ``regenerate_all --only`` merges records into an
existing ``BENCH_results.json`` without restamping the ones it kept, and
``check_regression`` refuses a gated record that was carried over
rather than rerun."""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def benchmarks():
    sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
    try:
        import check_regression
        import regenerate_all

        yield regenerate_all, check_regression
    finally:
        sys.path.pop(0)


OLD = {"git_sha": "old", "python": "3.x", "numpy": "2.x", "timestamp": "then"}


def test_only_merge_keeps_the_other_records_provenance(
    benchmarks, tmp_path, monkeypatch, capsys
):
    regenerate_all, _ = benchmarks
    path = tmp_path / "results.json"
    previous = {
        "provenance": OLD,
        "total_wall_clock_s": 99.0,
        "benches": [
            {"name": "bench_serve", "ok": True, "wall_clock_s": 2.0},
            {"name": "bench_gir_powers", "ok": True, "wall_clock_s": 3.0,
             "provenance": {"git_sha": "own"}},
            {"name": "bench_fig1_trace_example", "ok": True, "wall_clock_s": 5.0},
        ],
    }
    path.write_text(json.dumps(previous))
    monkeypatch.setattr(sys, "argv", [
        "regenerate_all", "--json", "--json-out", str(path),
        "--out", str(tmp_path / "artifacts"), "--only", "bench_fig1_trace_example",
    ])
    assert regenerate_all.main() == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    by_name = {b["name"]: b for b in doc["benches"]}
    assert doc["provenance"] == OLD  # the file keeps its own
    assert by_name["bench_serve"]["provenance"] == OLD  # measured with the file
    assert by_name["bench_gir_powers"]["provenance"] == {"git_sha": "own"}
    rerun = by_name["bench_fig1_trace_example"]
    assert rerun["provenance"]["timestamp"] != "then"
    assert doc["total_wall_clock_s"] == pytest.approx(5.0 + rerun["wall_clock_s"])


def test_a_carried_over_gated_record_fails_the_diff(benchmarks):
    _, check_regression = benchmarks
    base = {"benches": [
        {"name": "bench_serve", "ok": True, "wall_clock_s": 2.0, "provenance": OLD},
    ]}
    rerun = {"benches": [
        {"name": "bench_serve", "ok": True, "wall_clock_s": 2.1,
         "provenance": dict(OLD, timestamp="now")},
    ]}
    options = {"threshold": 0.25, "min_seconds": 0.05}
    assert check_regression.compare(base, base, **options)[0] == [
        "bench_serve: not rerun (same provenance as the baseline)"
    ]
    assert check_regression.compare(base, rerun, **options)[0] == []
