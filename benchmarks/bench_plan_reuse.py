"""Plan-reuse benchmark: the engine's cacheable-Plan payoff.

Not a paper artifact -- the perf contract of the Plan/Execute split:
ten solves sharing one set of index maps (``n = 100,000`` ordinary IR)
must run at least 2x faster when they reuse a cached plan than ten
fresh ``solve``s that each replan from scratch against the pure-Python
reference.  ``main()`` returns nonzero when the contract is violated,
so ``regenerate_all.py`` (and CI) fail on a plan-cache regression.

Arms
----
* ``fresh python``   -- plan + execute per call, pure-Python backend
  (the historical ``solve_ordinary`` cost profile);
* ``fresh numpy``    -- plan + execute per call, vectorized backend;
* ``planned numpy``  -- plan once, replay it ten times;
* ``batched numpy``  -- one planned ``(k, m)`` sweep over all ten
  value vectors.
"""

import time

import numpy as np

from repro.core import FLOAT_ADD, OrdinaryIRSystem
from repro.engine import (
    EngineOptions,
    clear_plan_cache,
    execute,
    solve,
    solve_batch,
)

N = 100_000
SOLVES = 10
MIN_SPEEDUP = 2.0


def build(n=N):
    return OrdinaryIRSystem.build(
        np.full(n + 1, 0.5),
        np.arange(1, n + 1),
        np.arange(n),
        FLOAT_ADD,
    )


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(n=N, solves=SOLVES):
    system = build(n)
    rng = np.random.default_rng(42)
    rows = [rng.uniform(-1.0, 1.0, size=n + 1).tolist() for _ in range(solves)]

    def fresh(backend):
        for _ in range(solves):
            clear_plan_cache()  # every call replans
            solve(system, options=EngineOptions(backend=backend))

    fresh_python = _time(lambda: fresh("python"))
    fresh_numpy = _time(lambda: fresh("numpy"))

    clear_plan_cache()
    plan = solve(
        system,
        reuse_plan=False,
        options=EngineOptions(backend="numpy"),
    ).plan

    def planned():
        for _ in range(solves):
            execute(plan, system, options=EngineOptions(backend="numpy"))

    planned_numpy = _time(planned)
    batched_numpy = _time(lambda: solve_batch(system, rows, plan=plan))

    return {
        "n": n,
        "solves": solves,
        "fresh_python_s": fresh_python,
        "fresh_numpy_s": fresh_numpy,
        "planned_numpy_s": planned_numpy,
        "batched_numpy_s": batched_numpy,
        "speedup_vs_fresh_python": fresh_python / planned_numpy,
        "speedup_vs_fresh_numpy": fresh_numpy / planned_numpy,
    }


def main() -> int:
    results = run()
    print(f"plan reuse, {results['solves']} solves of an "
          f"n = {results['n']:,} ordinary IR chain")
    print(f"{'fresh python (replan each)':<28} {results['fresh_python_s']:8.4f}s")
    print(f"{'fresh numpy (replan each)':<28} {results['fresh_numpy_s']:8.4f}s")
    print(f"{'planned numpy (one plan)':<28} {results['planned_numpy_s']:8.4f}s")
    print(f"{'batched numpy (one sweep)':<28} {results['batched_numpy_s']:8.4f}s")
    print(f"speedup vs fresh python: "
          f"{results['speedup_vs_fresh_python']:.1f}x "
          f"(vs fresh numpy: {results['speedup_vs_fresh_numpy']:.1f}x)")
    if results["speedup_vs_fresh_python"] < MIN_SPEEDUP:
        print(f"REGRESSION: plan reuse under {MIN_SPEEDUP}x "
              f"over fresh python solves")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
