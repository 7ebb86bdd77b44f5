"""Shared-memory backend benchmark: the multiprocess payoff gate.

Not a paper artifact -- the perf contract of the ``shm`` backend: one
``n = 1,000,000`` ordinary IR chain (int64 ADD, the paper's canonical
prefix-sum shape) must solve faster through the 4-worker
shared-memory pool than through the single-process pure-Python
backend, and -- under ``--check`` (the default here and in
``regenerate_all.py``) -- element-exactly match the sequential oracle.
``main()`` returns nonzero when either contract is violated, so
``regenerate_all.py`` (and CI) fail on an shm regression.

Arms
----
* ``python 1proc``  -- the interpreted per-element reference backend;
* ``shm 4 workers`` -- rounds fanned across the worker pool as
  contiguous n/P shards over shared memory.

Plans are pre-built for both arms (the gate measures execution, not
planning) and the pool is warmed with one small solve so process
spawn cost is not on the clock.
"""

import argparse
import time

import numpy as np

from repro.core import ADD, OrdinaryIRSystem, run_ordinary
from repro.engine import EngineOptions, solve
from repro.engine.shm_pool import shutdown_pools

N = 1_000_000
WORKERS = 4


def build(n=N):
    rng = np.random.default_rng(7)
    return OrdinaryIRSystem.build(
        rng.integers(0, 1_000, size=n + 1),
        np.arange(1, n + 1),
        np.arange(n),
        ADD,
    )


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def run(n=N, workers=WORKERS, check=True):
    system = build(n)

    # Warm the pool (worker spawn + tiny schedule upload off the clock).
    solve(build(64), options=EngineOptions(backend="shm", workers=workers))

    # shared planning cost
    plan = solve(system, options=EngineOptions(backend="numpy")).plan
    shm_res, shm_s = _time(
        lambda: solve(
            system,
            plan=plan,
            options=EngineOptions(backend="shm", workers=workers),
        )
    )
    py_res, py_s = _time(lambda: solve(
        system,
        plan=plan,
        options=EngineOptions(backend="python"),
    ))

    speedup = py_s / shm_s if shm_s > 0 else float("inf")
    print(f"n={n:,}  rounds={plan.rounds}  workers={workers}")
    print(f"  python 1proc      : {py_s:8.3f}s")
    print(f"  shm {workers} workers     : {shm_s:8.3f}s")
    print(f"  speedup           : {speedup:8.2f}x  (gate: > 1.0)")

    ok = shm_s < py_s
    if not ok:
        print("GATE FAILED: shm did not beat the single-process python "
              "backend")

    if check:
        oracle = run_ordinary(system)
        exact = shm_res.values == oracle and py_res.values == oracle
        print(f"  oracle parity     : {'exact' if exact else 'MISMATCH'}")
        ok = ok and exact

    return ok, speedup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument(
        "--check",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="verify element-exact parity with the sequential oracle",
    )
    args, _unknown = parser.parse_known_args()
    try:
        ok, _ = run(n=args.n, workers=args.workers, check=args.check)
    finally:
        shutdown_pools()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
