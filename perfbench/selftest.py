"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Checks, in about a minute:

1. a tiny-size pass of every declared workload, untraced and traced,
   succeeds with every reply correct (a traced run counts the replies
   of both its halves and of its serve phase);
2. every metric is measured, not filled in: each untraced run measures
   every end-to-end metric, each per-layer metric is measured by some
   workload's traced run, no run measures a metric that is not
   declared, and every printed metric has its declared unit and a
   finite value;
3. a run that corrupts every third reply before the oracle sees it
   reports those replies as failed, so the oracle cannot pass silently;
4. each workload's tail percentile is recorded in its ``why``;
5. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

from common import OUT_DIR, ROOT, SRC, tail_quantile

RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    """``(exit code, result line, run notes, stderr)`` of one tiny run."""
    proc = subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py",
         "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    notes = json.loads(lines[-2])["notes"] if len(lines) >= 2 else {}
    return proc.returncode, result, notes, proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    unmeasured = {m["name"] for m in spec["per_layer"]}
    sys.path.insert(0, SRC)
    for workload in spec["workloads"]:
        name = workload["name"]
        module = importlib.import_module(name)
        count = module.planned_requests(spec["run_seconds"])
        tail = round(tail_quantile(count, module.TAIL_BEYOND) * 100)
        if f"tail=p{tail}" not in workload["why"]:
            problems.append(f"{name}: why does not record tail=p{tail}")
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, notes, err = run(name, trace)
            label = f"{name} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}: {err[-400:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: replies failed: {result}")
            got = result["metrics"]
            for metric in declared:
                entry = got.get(metric["name"])
                if entry is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif entry["unit"] != metric["unit"] or not math.isfinite(entry["value"]):
                    problems.append(f"{label}: {metric['name']} = {entry}")
            if notes.get("undeclared"):
                problems.append(f"{label}: undeclared metrics {notes['undeclared']}")
            if trace:
                unmeasured &= set(notes.get("not_exercised", []))
            elif notes.get("not_exercised"):
                problems.append(f"{label}: not measured {notes['not_exercised']}")
        code, result, _, err = run(name, 0, "--corrupt-every", "3")
        if code != 0 or result is None:
            problems.append(f"{name} corrupted: exit {code}: {err[-400:]}")
        elif (result["correct"] or result["failed"] < result["attempted"] // 3
              or result["metrics"]["success_frac"]["value"] >= 1.0):
            problems.append(f"{name}: corrupted replies passed the oracle: {result}")
    if unmeasured:
        problems.append(f"per-layer metrics no workload measures: {sorted(unmeasured)}")

    bare = os.path.join(OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(os.path.join(ROOT, "perfbench")):
        if entry.endswith((".py", ".md")):
            shutil.copy(os.path.join(ROOT, "perfbench", entry),
                        os.path.join(bare, "perfbench"))
    code, result, _, _ = run("replay", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append(f"bare directory: exit {code}, result {result}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
