"""Batched GIR trace evaluation: the GIRPlan-v2 payoff (Fig. 5 scale).

Not a paper artifact -- the perf contract of the array-backed CAP
refactor: on the Fibonacci-powers GIR family at ``n = 100,000``
(the paper's Fig. 5 workload, modular addition so path counts reduce
by the operator period), replaying a **cached plan** with the batched
evaluator must run at least ``MIN_SPEEDUP``x faster than the per-row
evaluator on the same plan, and both must match the sequential
``run_gir`` oracle bit-for-bit.  A small modular-*multiplication*
leg re-checks exactness on the second power-typed operator family
(period ``m - 1``).  ``main()`` returns nonzero when the speedup gate
or any exactness check fails, so ``regenerate_all.py`` (and the
regression differ, which gates on this bench) fail on a batched-path
regression.

Arms
----
* ``rows``      -- cached plan, per-row trace evaluation (the v1
  executor's cost profile);
* ``batched``   -- cached plan, deduplicated power table + one
  vectorized combine per distinct exponent;
* ``sequential``-- ``run_gir``, the oracle both arms must equal.
"""

import time

from repro.core import GIRSystem, run_gir
from repro.core.operators import modular_add, modular_mul
from repro.engine import EngineOptions, solve

N = 100_000
MIN_SPEEDUP = 10.0
MOD = 10**9 + 7
MUL_N = 400
MUL_M = 1009  # prime, so modular_mul carries period m - 1


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


def main() -> int:
    results = run()
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
    failed = False
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
