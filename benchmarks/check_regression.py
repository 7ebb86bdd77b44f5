#!/usr/bin/env python
"""Diff two ``BENCH_results.json`` files and gate on regressions.

::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json

Compares per-bench wall clocks and exits nonzero when

* any **speedup-gated** bench (the ones whose ``main()`` enforces a
  parallel-beats-baseline gate: plan reuse, batched GIR eval, serve
  coalescing, the engines' and the strided chains' wall clock vs the
  sequential loop) slowed down by more than the threshold (default
  25%), or
* a bench that passed in the baseline fails in the current run, or
* a gated bench disappeared from the current file, or
* a gated record in the current file carries the baseline record's
  provenance -- it was carried over by a ``--only`` merge, not rerun.

Other benches are reported informationally but never fail the check:
their wall clocks include artifact printing and scale sweeps whose
durations are intentionally load-dependent.  Tiny absolute times are
ignored (``--min-seconds``) -- a 0.01s -> 0.02s blip is scheduler
noise, not a regression.

Provenance (host, Python, NumPy, CPU count, git SHA) from both files
is printed so cross-machine comparisons are visibly apples-to-oranges.
"""

import argparse
import json
import sys

#: Benches whose own main() enforces a speedup gate; their wall clock
#: is a tracked performance contract, so the diff gates on them.
GATED = (
    "bench_plan_reuse",
    "bench_gir_powers",
    "bench_serve",
    "bench_wallclock_engines",
    "bench_strided_chains",
)

DEFAULT_THRESHOLD = 0.25
DEFAULT_MIN_SECONDS = 0.05


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if "benches" not in doc:
        raise SystemExit(f"error: {path} is not a BENCH_results.json file")
    return doc


def _by_name(doc):
    return {record["name"]: record for record in doc.get("benches", [])}


def _provenance_line(doc):
    prov = doc.get("provenance", {})
    parts = [
        f"host={prov.get('host', '?')}",
        f"python={prov.get('python', doc.get('python', '?'))}",
        f"numpy={prov.get('numpy', doc.get('numpy', '?'))}",
        f"cpus={prov.get('cpu_count', '?')}",
        f"git={str(prov.get('git_sha'))[:12]}",
        f"at={prov.get('timestamp', '?')}",
    ]
    return "  ".join(parts)


def compare(baseline, current, *, threshold, min_seconds):
    """Returns ``(failures, report_lines)``."""
    base, cur = _by_name(baseline), _by_name(current)
    failures = []
    lines = []
    for name in sorted(set(base) | set(cur)):
        gated = name in GATED
        old, new = base.get(name), cur.get(name)
        tag = "gated" if gated else "info "
        if old is None:
            lines.append(f"  {tag}  {name:<34} new bench")
            continue
        if new is None:
            lines.append(f"  {tag}  {name:<34} MISSING from current")
            if gated:
                failures.append(f"{name}: missing from current results")
            continue
        carried = old.get("provenance") and new.get("provenance") == old["provenance"]
        if gated and carried:
            lines.append(f"  {tag}  {name:<34} NOT RERUN (the baseline's record)")
            failures.append(f"{name}: not rerun (same provenance as the baseline)")
            continue
        if old.get("ok") and not new.get("ok"):
            lines.append(
                f"  {tag}  {name:<34} FAILED: {new.get('error')}"
            )
            failures.append(f"{name}: now failing ({new.get('error')})")
            continue
        t0, t1 = old.get("wall_clock_s"), new.get("wall_clock_s")
        if not t0 or t1 is None:
            lines.append(f"  {tag}  {name:<34} no timing to compare")
            continue
        delta = (t1 - t0) / t0
        verdict = ""
        if (
            gated
            and delta > threshold
            and max(t0, t1) >= min_seconds
        ):
            verdict = f"  REGRESSION (> {threshold:.0%})"
            failures.append(
                f"{name}: {t0:.3f}s -> {t1:.3f}s ({delta:+.1%})"
            )
        lines.append(
            f"  {tag}  {name:<34} {t0:8.3f}s -> {t1:8.3f}s "
            f"({delta:+7.1%}){verdict}"
        )
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="baseline BENCH_results.json")
    parser.add_argument("current", help="current BENCH_results.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional wall-clock regression tolerated on gated "
        "benches (default: 0.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="ignore regressions where both sides are under this many "
        "seconds (default: 0.05)",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    current = _load(args.current)

    print(f"baseline: {_provenance_line(baseline)}")
    print(f"current : {_provenance_line(current)}")
    failures, lines = compare(
        baseline,
        current,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    print("\n".join(lines))
    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
