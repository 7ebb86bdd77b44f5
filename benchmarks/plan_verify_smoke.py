#!/usr/bin/env python
"""CI smoke: the ``repro.check`` plan verifier must be sound, complete
on the planner's own output, and cheap.

Three gates over a benchmark-shaped problem matrix (all three plan
families; ordinary plans also re-verified after a
``plan_to_dict``/``plan_from_dict`` round trip, the ``repro check``
file path):

1. **Acceptance** -- every genuine planner schedule verifies clean.
   One rejection fails the job: the verifier would be crying wolf in production.
2. **Mutation rejection** -- :func:`repro.check.mutate.mutation_campaign`
   corrupts each ordinary schedule (round swaps, gather perturbations,
   dropped rounds, duplicated active ids, predecessor corruption,
   truncation, chain-layout corruption) plus each GIR CAP
   power table (exponent perturbation, row-pointer truncation, cell
   swaps, pointer-repaired leaf drift) and the verifier must
   reject at least ``REJECT_FLOOR`` (95%) of the mutants.  The floor
   exists because a mutation can, rarely, land on a semantically
   equivalent schedule; in practice rejection is 100%.
3. **Overhead** -- aggregate verify time across the matrix must stay
   under ``OVERHEAD_BUDGET`` (10%) of aggregate plan-build time.
   Per-family ratios are printed but not gated: a tiny ordinary plan
   verifies in microseconds while GIR CAP planning dominates its own
   check by orders of magnitude, and the aggregate is what the
   ``verify_plan=True`` opt-in costs a mixed workload.  A breached
   budget is remeasured up to ``MAX_ATTEMPTS`` times (noise vs
   regression).

Exit 0 on success, 1 on any violated gate.
"""

import os
import sys
import time
from repro.engine import EngineOptions

ORDINARY_N = int(os.environ.get("REPRO_SMOKE_N", "20000"))
GIR_N = int(os.environ.get("REPRO_SMOKE_GIR_N", "40"))
MUTATION_SEEDS = range(int(os.environ.get("REPRO_SMOKE_SEEDS", "6")))
REJECT_FLOOR = 0.95
OVERHEAD_BUDGET = float(os.environ.get("REPRO_SMOKE_VERIFY_BUDGET", "0.10"))
MAX_ATTEMPTS = int(os.environ.get("REPRO_SMOKE_ATTEMPTS", "3"))


def build_matrix():
    """(label, system) pairs mirroring the benchmark workloads."""
    import numpy as np

    from repro.core.moebius import RationalRecurrence
    from repro.core.workloads import (
        chain_system,
        double_chain_gir_system,
        fibonacci_gir_system,
        forest_system,
        random_ordinary_system,
        scatter_system,
    )

    n = ORDINARY_N
    rng = np.random.default_rng(11)
    moebius = RationalRecurrence.build(
        rng.uniform(0.5, 1.5, n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        rng.uniform(0.5, 1.5, n).tolist(),
        rng.uniform(0.5, 1.5, n).tolist(),
        rng.uniform(0.1, 0.9, n).tolist(),
        rng.uniform(1.0, 2.0, n).tolist(),
    )
    return [
        ("ordinary/chain", chain_system(n)),
        ("ordinary/random", random_ordinary_system(n, seed=3)),
        ("ordinary/forest", forest_system([n // 2] + [8] * (n // 64))),
        ("moebius/random", moebius),
        ("gir/fibonacci", fibonacci_gir_system(GIR_N)),
        ("gir/double-chain", double_chain_gir_system(GIR_N)),
        ("gir/scatter", scatter_system(8 * GIR_N, 24, seed=5)),
    ]


def warm_up():
    """Pay the one-time import and first-call costs (module loading,
    numpy ufunc dispatch caches) outside the timed region."""
    from repro.check import verify_plan
    from repro.core.workloads import chain_system
    from repro.engine import solve
    from repro.engine.planner import PlanCache

    result = solve(
        chain_system(64),
        cache=PlanCache(),
        options=EngineOptions(backend="numpy"),
    )
    verify_plan(result.plan)


def acquire_plans(matrix):
    """Build each problem's plan through the engine (fresh cache),
    timing plan acquisition; returns rows of
    ``(label, family, problem, system, plan, plan_seconds)``."""
    from repro.engine import solve
    from repro.engine.planner import PlanCache
    from repro.engine.problem import Problem

    rows = []
    for label, system in matrix:
        problem = Problem.from_system(system)
        t0 = time.perf_counter()
        result = solve(
            system,
            cache=PlanCache(),
            options=EngineOptions(backend="numpy"),
        )
        plan_s = time.perf_counter() - t0
        if result.plan is None:
            raise SystemExit(f"FAIL: {label}: engine returned no plan")
        rows.append((label, problem.family, problem, system, result.plan, plan_s))
    return rows


def gate_acceptance(rows):
    """Gate 1: genuine plans (and their serialized round trips) verify
    clean; returns (failures, total_verify_seconds, per-row seconds)."""
    from repro.check import verify_plan
    from repro.engine.plan import plan_from_dict, plan_to_dict

    failures = []
    verify_s = {}
    for label, family, problem, system, plan, _plan_s in rows:
        t0 = time.perf_counter()
        report = verify_plan(
            plan,
            problem,
            system=system if family == "gir" else None,
        )
        verify_s[label] = time.perf_counter() - t0
        if not report.ok:
            failures.append((label, report.errors[0].describe()))
            continue
        rehydrated = plan_from_dict(plan_to_dict(plan))
        round_trip = verify_plan(
            rehydrated,
            problem,
            system=system if family == "gir" else None,
        )
        if not round_trip.ok:
            failures.append(
                (f"{label} (round-trip)", round_trip.errors[0].describe())
            )
        print(
            f"  accept {label:<22} checks={report.checks_run:>6} "
            f"verify={verify_s[label] * 1e3:8.2f} ms"
        )
    return failures, verify_s


def ordinary_schedule_of(family, plan):
    """The mutable ordinary schedule nested in any plan family."""
    if family == "ordinary":
        return plan
    if family == "moebius":
        return plan.ordinary
    return plan.dispatch  # gir; None for CAP-only dispatch-free plans


def gate_mutations(rows):
    """Gate 2: campaign every ordinary schedule -- and every GIR CAP
    power table against the system-backed oracle; count rejections."""
    from repro.check import mutation_campaign, verify_plan

    total = rejected = 0
    survivors = []
    for label, family, _problem, system, plan, _plan_s in rows:
        sched = ordinary_schedule_of(family, plan)
        if sched is not None:
            for mut in mutation_campaign(sched, seeds=MUTATION_SEEDS):
                total += 1
                report = verify_plan(mut.plan)
                if report.ok:
                    survivors.append((label, mut.kind, mut.description))
                else:
                    rejected += 1
        if family == "gir" and getattr(plan, "table", None) is not None:
            # CAP-family plans: the v2 CSR mutation classes, verified
            # against the dependence-graph oracle.
            for mut in mutation_campaign(plan, seeds=MUTATION_SEEDS):
                total += 1
                report = verify_plan(mut.plan, system=system)
                if report.ok:
                    survivors.append((label, mut.kind, mut.description))
                else:
                    rejected += 1
    return total, rejected, survivors


def main():
    print(
        f"plan-verify smoke: n={ORDINARY_N} gir_n={GIR_N} "
        f"budget={OVERHEAD_BUDGET:.0%}"
    )
    matrix = build_matrix()
    warm_up()

    for attempt in range(1, MAX_ATTEMPTS + 1):
        rows = acquire_plans(matrix)
        failures, verify_s = gate_acceptance(rows)
        if failures:
            for label, detail in failures:
                print(f"FAIL: genuine plan rejected: {label}: {detail}")
            return 1

        plan_total = sum(r[5] for r in rows)
        verify_total = sum(verify_s.values())
        ratio = verify_total / plan_total if plan_total else 0.0
        for label, _family, _problem, _system, _plan, plan_s in rows:
            per = verify_s[label] / plan_s if plan_s else 0.0
            print(
                f"  timing {label:<22} plan={plan_s * 1e3:8.2f} ms "
                f"verify/plan={per:6.1%}"
            )
        print(
            f"aggregate verify/plan = {verify_total * 1e3:.2f}/"
            f"{plan_total * 1e3:.2f} ms = {ratio:.1%} "
            f"(budget {OVERHEAD_BUDGET:.0%})"
        )
        if ratio <= OVERHEAD_BUDGET:
            break
        if attempt == MAX_ATTEMPTS:
            print(
                f"FAIL: verify overhead {ratio:.1%} > {OVERHEAD_BUDGET:.0%} "
                f"after {MAX_ATTEMPTS} attempts"
            )
            return 1
        print(f"  overhead breached on attempt {attempt}; remeasuring...")

    total, rejected, survivors = gate_mutations(rows)
    rate = rejected / total if total else 0.0
    print(f"mutations: {rejected}/{total} rejected ({rate:.1%})")
    if total == 0:
        print("FAIL: mutation campaign produced no mutants")
        return 1
    for label, kind, desc in survivors:
        print(f"  survivor: {label} [{kind}] {desc}")
    if rate < REJECT_FLOOR:
        print(f"FAIL: rejection rate {rate:.1%} < floor {REJECT_FLOOR:.0%}")
        return 1

    print("plan-verify smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
