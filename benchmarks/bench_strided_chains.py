"""Strided chains against the paper's sequential loop.

``main()`` is a gated bench (``check_regression.GATED``).  At n = 1M,
int ``ADD``, each shape is solved by a default ``Session`` -- list in,
list out, best of ``REPEATS`` in one process -- and timed against the
sequential loop (``run_ordinary``) and the C floor (one
``np.add.accumulate`` over an array of the same size):

* ``stride1``: ``X[i+1] op= X[i]``, one run scanned in place;
* ``stride2`` / ``stride4``: ``k`` interleaved chains ``X[i+k] op=
  X[i]`` (``stride4`` is the paper's Fig 1 loop ``A[i+4] := A[i] *
  A[i+4]``), ``k`` runs of stride ``k`` in one level;
* ``spine``: ``X[2j+2] op= X[2j]`` and ``X[2j+1] op= X[2j]``, a stride-2
  spine and one run per leaf, three levels.

Each row records the strategy, the speedup over the loop, the ratio to
the floor, the plan's bytes after the first solve and the ``Session``
construction time (best of ``REPEATS`` too).  The gate: stride 2,
stride 4 and the spine reach ``MIN_SPEEDUP`` over the loop.  ``--n``
runs a smaller smoke shape.
"""

import argparse
import dataclasses
import time

import numpy as np

from repro.core import ADD, OrdinaryIRSystem, run_ordinary
from repro.engine import Session
from repro.engine.planner import plan_nbytes

N = 1_000_000
MIN_SPEEDUP = 1.3
REPEATS = 3
SHAPES = ("stride1", "stride2", "stride4", "spine")
GATED = ("stride2", "stride4", "spine")

#: Filled by :func:`main`; ``regenerate_all --json`` records it.
RATIOS = {}


def shape(name, n):
    """The ``(g, f)`` maps of one shape over ``n`` iterations (``g`` the
    identity, cell ``n`` never written)."""
    idx = np.arange(n)
    if name == "spine":
        f = np.where(idx % 2 == 0, idx - 2, idx - 1)
    else:
        f = idx - int(name[len("stride"):])
    f[f < 0] = n
    return idx, f


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(name, n=N):
    """One shape's row, checked exact against the loop."""
    g, f = shape(name, n)
    system = OrdinaryIRSystem.build(np.zeros(n + 1, dtype=np.int64), g, f, ADD)
    values = np.random.default_rng(0).integers(-1000, 1000, n + 1).tolist()
    session_s = _best(lambda: Session(system))
    session = Session(system)
    got = session.solve(values)
    want = run_ordinary(dataclasses.replace(system, initial=values))
    if got.values != want:
        raise AssertionError(f"{name}: Session result differs from the loop")
    plan_bytes = plan_nbytes(session.plan)
    engine_s = _best(lambda: session.solve(values))
    loop_s = _best(lambda: run_ordinary(dataclasses.replace(system, initial=values)))
    floor = np.asarray(values)
    floor_s = _best(lambda: np.add.accumulate(floor))
    return {
        "strategy": got.strategy,
        "segments": session.plan.chains.segments if got.strategy == "chains" else None,
        "engine_s": engine_s,
        "loop_s": loop_s,
        "speedup_vs_loop": loop_s / engine_s,
        "floor_ratio": engine_s / floor_s,
        "plan_bytes": plan_bytes,
        "session_s": session_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N, help="iterations per shape")
    args = parser.parse_args([] if argv is None else argv)
    rows = {name: measure(name, args.n) for name in SHAPES}
    RATIOS.clear()
    print(f"int ADD, n = {args.n:,}, default Session, list in / list out, "
          f"best of {REPEATS}:")
    print(f"  {'shape':<8} {'strategy':<8} {'runs':>7} {'solve':>8} {'loop':>8} "
          f"{'vs loop':>8} {'/ floor':>8} {'plan MB':>8} {'Session':>8}")
    for name, row in rows.items():
        RATIOS[f"{name}.speedup_vs_loop"] = round(row["speedup_vs_loop"], 3)
        RATIOS[f"{name}.floor_ratio"] = round(row["floor_ratio"], 1)
        RATIOS[f"{name}.plan_mb"] = round(row["plan_bytes"] / 1e6, 2)
        RATIOS[f"{name}.session_s"] = round(row["session_s"], 4)
        print(f"  {name:<8} {row['strategy']:<8} {row['segments'] or '-':>7} "
              f"{row['engine_s']:>7.4f}s {row['loop_s']:>7.4f}s "
              f"{row['speedup_vs_loop']:>7.2f}x {row['floor_ratio']:>7.1f}x "
              f"{row['plan_bytes'] / 1e6:>8.1f} {row['session_s']:>7.3f}s")
    status = 0
    for name in GATED:
        speedup = rows[name]["speedup_vs_loop"]
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: {name} speedup_vs_loop {speedup:.2f}x < {MIN_SPEEDUP}x")
            status = 1
    return status


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
