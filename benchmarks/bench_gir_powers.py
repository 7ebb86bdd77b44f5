"""Batched GIR trace evaluation: the GIRPlan-v2 payoff (Fig. 5 scale).

Not a paper artifact -- the perf contract of the array-backed CAP
refactor: on the Fibonacci-powers GIR family at ``n = 100,000``
(the paper's Fig. 5 workload, modular addition so path counts reduce
by the operator period), replaying a **cached plan** with the batched
evaluator must run at least ``MIN_SPEEDUP``x faster than the per-row
evaluator on the same plan, and both must match the sequential
``run_gir`` oracle bit-for-bit.  A small modular-*multiplication*
leg re-checks exactness on the second power-typed operator family
(period ``m - 1``).

A *cold* arm times what a never-repeating request costs: a fresh
``random_gir_system(50_000, extra_cells=50_000)`` per solve, planned
(dependence graph, CAP, power table) and evaluated, against ``run_gir``
on the same system in the same process.  The engine still loses to the
sequential loop here -- a 50k-iteration GIR loop is ~20 ms of Python,
and planning alone costs more -- so the gate is a floor on the ratio
(``MIN_COLD_RATIO``), not a win.

``main()`` returns nonzero when either gate or any exactness check
fails, so ``regenerate_all.py`` (and the regression differ, which
gates on this bench) fail on a batched-path or cold-planning
regression; ``RATIOS`` publishes both ratios for
``regenerate_all --json``.

Arms
----
* ``rows``      -- cached plan, per-row trace evaluation (the v1
  executor's cost profile);
* ``batched``   -- cached plan, exponent-1 factors gathered and the
  rest powered in one vectorized pass, one vectorized combine per row
  width;
* ``sequential``-- ``run_gir``, the oracle both arms must equal;
* ``cold``      -- fresh maps per solve (plan + evaluate) vs ``run_gir``.
"""

import time

from repro.core import GIRSystem, run_gir
from repro.core.operators import modular_add, modular_mul
from repro.core.workloads import random_gir_system
from repro.engine import EngineOptions, solve
from repro.engine.planner import PlanCache

N = 100_000
MIN_SPEEDUP = 10.0
MOD = 10**9 + 7
MUL_N = 400
MUL_M = 1009  # prime, so modular_mul carries period m - 1
#: Cold arm: iterations per fresh system, systems timed, and the gate
#: on ``run_gir`` seconds / engine seconds.
COLD_N = 50_000
COLD_REPEATS = 5
MIN_COLD_RATIO = 0.2

#: Filled by :func:`main`; ``regenerate_all --json`` records it.
RATIOS = {}


def fibonacci_powers(n, op):
    """x[i+2] = x[i+1] op x[i]: leaf exponents are Fibonacci numbers."""
    return GIRSystem.build(
        list(range(1, n + 3)),
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        list(range(n)),
        op,
    )


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run(n=N):
    system = fibonacci_powers(n, modular_add(MOD))
    oracle_s, expect = _time(lambda: run_gir(system))

    # Plan once (CAP doubling + table reduction), replay twice.
    plan = solve(system, options=EngineOptions(backend="numpy")).plan
    assert plan.dispatch is None, "Fibonacci powers must take the CAP path"
    rows_s, rows_result = _time(
        lambda: solve(
            system,
            plan=plan,
            options=EngineOptions(
                backend="numpy",
                backend_options={"gir_eval": "rows"},
            ),
        )
    )
    batched_s, batched_result = _time(
        lambda: solve(
            system,
            plan=plan,
            options=EngineOptions(
                backend="numpy",
                backend_options={"gir_eval": "batched"},
            ),
        )
    )

    mul_system = fibonacci_powers(MUL_N, modular_mul(MUL_M))
    mul_expect = run_gir(mul_system)
    mul_result = solve(
        mul_system,
        options=EngineOptions(
            backend="numpy",
            backend_options={"gir_eval": "batched"},
        ),
    )

    return {
        "n": n,
        "sequential_s": oracle_s,
        "rows_s": rows_s,
        "batched_s": batched_s,
        "speedup_batched_vs_rows": rows_s / batched_s,
        "rows_exact": rows_result.values == expect,
        "batched_exact": batched_result.values == expect,
        "mul_exact": mul_result.values == mul_expect,
        "cap_iterations": plan.cap_iterations,
        "table_nnz": plan.table.nnz,
    }


def _median(xs):
    return sorted(xs)[len(xs) // 2]


def run_cold(n=COLD_N, repeats=COLD_REPEATS):
    """A fresh ``random_gir_system(n, extra_cells=n)`` per repeat:
    default ``solve`` (plans every time; a private cache so nothing is
    reused) vs ``run_gir`` on the same system, medians of each."""
    engine_s, loop_s, exact = [], [], True
    for seed in range(repeats):
        system = random_gir_system(n, extra_cells=n, seed=seed)
        t_engine, result = _time(lambda: solve(system, cache=PlanCache()))
        t_loop, expect = _time(lambda: run_gir(system))
        exact = exact and result.values == expect
        engine_s.append(t_engine)
        loop_s.append(t_loop)
    engine, loop = _median(engine_s), _median(loop_s)
    return {
        "n": n,
        "engine_s": engine,
        "loop_s": loop,
        "ratio": loop / engine,
        "exact": exact,
    }


def main() -> int:
    results = run()
    cold = run_cold()
    RATIOS.clear()
    RATIOS.update(
        batched_vs_rows=round(results["speedup_batched_vs_rows"], 1),
        cold_speedup_vs_loop=round(cold["ratio"], 3),
    )
    print(f"GIR batched trace evaluation, Fibonacci powers "
          f"n = {results['n']:,} (mod {MOD})")
    print(f"{'sequential run_gir (oracle)':<30} {results['sequential_s']:8.4f}s")
    print(f"{'cached plan, rows eval':<30} {results['rows_s']:8.4f}s")
    print(f"{'cached plan, batched eval':<30} {results['batched_s']:8.4f}s")
    print(f"speedup batched vs rows: "
          f"{results['speedup_batched_vs_rows']:.1f}x "
          f"(CAP iterations {results['cap_iterations']}, "
          f"table nnz {results['table_nnz']:,})")
    print(f"exact vs oracle: rows={results['rows_exact']} "
          f"batched={results['batched_exact']} "
          f"modular_mul(n={MUL_N})={results['mul_exact']}")
    print(f"cold: fresh random GIR n = {cold['n']:,} per solve "
          f"(median of {COLD_REPEATS})")
    print(f"{'  engine solve (plan + eval)':<30} {cold['engine_s']:8.4f}s")
    print(f"{'  sequential run_gir':<30} {cold['loop_s']:8.4f}s")
    print(f"  loop / engine = {cold['ratio']:.2f}x (gate >= {MIN_COLD_RATIO}x; "
          f"the engine still loses to the loop here), exact={cold['exact']}")
    failed = False
    if not cold["exact"]:
        print("REGRESSION: cold arm disagrees with run_gir")
        failed = True
    if cold["ratio"] < MIN_COLD_RATIO:
        print(f"REGRESSION: cold GIR solve under {MIN_COLD_RATIO}x "
              f"of the sequential loop")
        failed = True
    for key in ("rows_exact", "batched_exact", "mul_exact"):
        if not results[key]:
            print(f"REGRESSION: {key} arm disagrees with run_gir")
            failed = True
    if results["speedup_batched_vs_rows"] < MIN_SPEEDUP:
        print(f"REGRESSION: batched eval under {MIN_SPEEDUP}x "
              f"over per-row eval on a cached plan")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
