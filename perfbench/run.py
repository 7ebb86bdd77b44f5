"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``BENCHMARK.json`` declares the
workloads ``replay`` and ``cold`` (see ``perfbench/NOTES.md``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics
declared in ``BENCHMARK.json``; with ``--trace 1`` it carries the
per-layer metrics, measured on a traced half of the run and compared
with an untraced half.  End-to-end times are in recorded-host seconds
(``common.host_factor``); per-layer times are raw.  Every declared metric
is printed; one the
workload does not measure reads 0 and is listed under
``not_exercised`` in the run notes, the line before the result, which
also records provenance.  Spans of a traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time

sys.dont_write_bytecode = True

from common import (
    OUT_DIR,
    ROOT,
    SRC,
    Context,
    Spans,
    end_to_end,
    host_factor,
    median,
    provenance,
    tail_quantile,
)

WORKLOADS = ("replay", "cold")
#: No round starts later than this many seconds into the process, so a
#: run ends well inside its three-minute limit.
DEADLINE_S = 140.0


def declared_metrics(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="problem sizes; 'tiny' is the self-test's seconds-long pass",
    )
    parser.add_argument(
        "--corrupt-every",
        type=int,
        default=0,
        metavar="K",
        help="self-test: corrupt every K-th reply before the oracle check",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    trace = bool(args.trace)
    declared = declared_metrics(trace)
    names = {m["name"] for m in declared}
    module = importlib.import_module(args.workload)
    spans = Spans(trace)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=trace,
        scale=args.scale,
        corrupt_every=args.corrupt_every,
        spans=spans,
        deadline=started + DEADLINE_S,
    )
    tail_q = tail_quantile(module.planned_requests(args.seconds), module.TAIL_BEYOND)
    result = module.run(ctx)
    reqs = result.requests
    failed = sum(1 for r in reqs if not r.ok)
    if trace:
        values = dict(result.per_layer)
        values["failed_frac"] = failed / len(reqs) if reqs else 1.0
        spans.dump(
            os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        )
        result.notes["span_self_s"] = spans.self_times()
    else:
        factor = host_factor(reqs, module.LOOP_NOMINAL_S)
        values = end_to_end(result, tail_q, factor)
        result.notes["host_factor"] = factor
        result.notes["raw_seconds"] = {
            name: value for name, value in end_to_end(result, tail_q).items()
            if name in ("setup_s", "throughput_rps", "latency_p50_s", "latency_tail_s")
        }
    if ctx.truncated:
        print("error: the run reached its deadline before its planned rounds; "
              "it did less work than planned", file=sys.stderr)
    beyond = len(reqs) - math.ceil(tail_q * len(reqs))
    notes = {
        "workload": args.workload,
        "scale": args.scale,
        "requests": len(reqs),
        "truncated": ctx.truncated,
        "tail_percentile": round(tail_q * 100),
        "samples_beyond_tail": beyond,
        "not_exercised": sorted(names - set(values)),
        "undeclared": sorted(set(values) - names),
        "median_s": {
            kind: [median([r.latency_s for r in reqs if r.kind == kind]),
                   median([r.loop_s for r in reqs if r.kind == kind])]
            for kind in sorted({r.kind for r in reqs})
        },
        "errors": sorted({r.error for r in reqs if r.error})[:5],
        **result.notes,
    }
    print(json.dumps({"provenance": provenance(args.seed), "notes": notes}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not ctx.truncated,
                "attempted": len(reqs),
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
