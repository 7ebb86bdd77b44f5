#!/usr/bin/env python
"""Regenerate every paper artifact into text files.

Runs each benchmark's ``main()`` and captures its output under
``artifacts/`` -- the single command that rebuilds everything
EXPERIMENTS.md quotes:

    python benchmarks/regenerate_all.py [--out artifacts]

With ``--json`` the harness additionally runs every benchmark under a
fresh :mod:`repro.obs` registry/tracer and writes ``BENCH_results.json``
(repo root by default; override with ``--json-out``): per-bench
wall-clock, round counts and op counts straight from the instrumented
solvers, plus the ``ratios`` a ratio-gated bench publishes in its
module-level ``RATIOS`` -- the machine-readable perf baseline future
PRs diff against.  Every record carries its own provenance.  With
``--only`` the selected records replace theirs in an existing results
file; the others, the file's own provenance and its python / numpy
stamps are kept, and ``total_wall_clock_s`` sums every record.  Write
to a fresh ``--json-out`` file to get the selected records alone.

Exit code is nonzero when any benchmark raises *or* returns a nonzero
status.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone

BENCHES = [
    "bench_fig1_trace_example",
    "bench_fig2_concatenation",
    "bench_fig3_ordinary_ir",
    "bench_fig4_trace_shapes",
    "bench_fig5_fibonacci_powers",
    "bench_fig6_dependence_graph",
    "bench_fig9_cap_iterations",
    "bench_table1_livermore_census",
    "bench_moebius_hydro",
    "bench_baselines_scan",
    "bench_gir_processors",
    "bench_livermore_parallel",
    "bench_ablation_power_atomic",
    "bench_ablation_work_efficiency",
    "bench_ablation_scheduling",
    "bench_wallclock_engines",
    "bench_strided_chains",
    "bench_plan_reuse",
    "bench_gir_powers",
    "bench_serve",
]

RESULTS_SCHEMA_VERSION = 2

# counters summed into the "rounds" / "ops" convenience totals
_ROUND_COUNTERS = ("solver.rounds", "cap.iterations", "pram.supersteps")
_OP_COUNTERS = (
    "solver.init_ops",
    "cap.edge_work",
    "gir.power_ops",
    "gir.combine_ops",
    "pram.superstep.work",
)


def _provenance():
    """Where/when/what produced this results file -- enough to judge
    whether two files are comparable before diffing wall clocks."""
    import numpy

    git_sha = None
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except Exception:
        pass
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha,
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def _sum_counters(snapshot, names):
    by_name = {}
    for entry in snapshot:
        if entry["kind"] == "counter" and entry["name"] in names:
            by_name[entry["name"]] = by_name.get(entry["name"], 0) + entry["value"]
    return by_name


def _run_one(name, collect_obs):
    """Run one benchmark; returns a result record (never raises)."""
    record = {"name": name, "ok": True, "error": None, "wall_clock_s": None}
    buffer = io.StringIO()
    observed = contextlib.nullcontext((None, None))
    if collect_obs:
        from repro import obs

        observed = obs.observed()
    started = time.perf_counter()
    try:
        with observed as (_tracer, registry):
            module = importlib.import_module(name)
            with contextlib.redirect_stdout(buffer):
                rc = module.main()
            ratios = getattr(module, "RATIOS", None)
            if ratios:
                # ratio-gated benches: the figures check_regression diffs
                record["ratios"] = dict(ratios)
            if rc not in (None, 0):
                raise RuntimeError(f"main() returned nonzero status {rc}")
            if registry is not None:
                snapshot = registry.snapshot()
                record["rounds"] = _sum_counters(snapshot, _ROUND_COUNTERS)
                record["ops"] = _sum_counters(snapshot, _OP_COUNTERS)
                record["metrics"] = snapshot
    except Exception as exc:  # keep going; report at the end
        record["ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["wall_clock_s"] = round(time.perf_counter() - started, 4)
    record["output"] = buffer.getvalue()
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts", help="output directory")
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write machine-readable results (BENCH_results.json)",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="path for the JSON results (default: <repo>/BENCH_results.json)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named bench(es); repeatable",
    )
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    os.makedirs(args.out, exist_ok=True)

    selected = args.only if args.only else BENCHES
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        print(f"unknown bench(es): {', '.join(unknown)}")
        return 2

    collect_obs = args.json
    results = []
    failures = []
    for name in selected:
        record = _run_one(name, collect_obs)
        results.append(record)
        if not record["ok"]:
            failures.append((name, record["error"]))
            print(f"FAIL  {name:<32} {record['wall_clock_s']:6.2f}s: "
                  f"{record['error']}")
            continue
        path = os.path.join(args.out, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(record["output"])
        print(f"ok    {name:<32} {record['wall_clock_s']:6.2f}s -> {path}")

    total = sum(r["wall_clock_s"] for r in results)

    if args.json:
        json_path = args.json_out or os.path.join(
            os.path.dirname(here), "BENCH_results.json"
        )
        provenance = _provenance()
        benches = [
            {k: v for k, v in r.items() if k != "output"} | {"provenance": provenance}
            for r in results
        ]
        if args.only and os.path.exists(json_path):
            # merge: the other records keep their own provenance (or the
            # file's, which measured them) and the file keeps its own
            with open(json_path, encoding="utf-8") as handle:
                previous = json.load(handle)
            measured = previous.get("provenance")
            benches = [
                {"provenance": measured} | b
                for b in previous["benches"]
                if b["name"] not in selected
            ] + benches
            provenance = measured or provenance
        payload = {
            "schema_version": RESULTS_SCHEMA_VERSION,
            "generated_by": "benchmarks/regenerate_all.py",
            "provenance": provenance,
            "python": provenance["python"],
            "numpy": provenance["numpy"],
            "total_wall_clock_s": round(sum(b["wall_clock_s"] for b in benches), 4),
            "benches": benches,
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"json  {json_path}")

    per_bench = "  ".join(
        f"{r['name'].replace('bench_', '')}={r['wall_clock_s']:.2f}s"
        for r in results
    )
    if failures:
        print(f"\n{len(failures)} artifact(s) failed "
              f"(total {total:.2f}s: {per_bench})")
        return 1
    print(f"\nall {len(results)} artifacts regenerated into {args.out}/ "
          f"(total {total:.2f}s: {per_bench})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
