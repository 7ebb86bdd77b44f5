"""GIR plans counted modulo the operator's power period.

CAP keeps every path count exact while the counts fit int64; once one
would leave int64 (the Fibonacci-shaped recurrences), an operator with
a ``power_period`` ``p`` gets each count as its residue
``((k - 1) mod p) + 1`` -- int64 in ``[1, p]`` -- and the table records
``period = p``.  Operators without a period, and bounded CAP runs, keep
exact counts.  Whatever the table holds, every evaluation mode must
stay bit-identical to the sequential loop, and a plan reduced by one
period must never serve an operator of another.
"""

import json

import numpy as np
import pytest

from repro.core import GIRSystem, run_gir
from repro.core.cap import count_all_paths, count_paths_dp, residue
from repro.core.depgraph import build_dependence_graph
from repro.core.operators import modular_add, modular_mul
from repro.core.workloads import (
    double_chain_gir_system,
    fibonacci_gir_system,
    random_gir_system,
)
from repro.engine import (
    EngineOptions,
    execute,
    plan_from_dict,
    plan_to_dict,
    solve,
    solve_batch,
)
from repro.engine.planner import PlanCache
from repro.engine.problem import Problem
from repro.errors import PlanVerificationError

from .._legacy_solvers import table_plan

P = 10**9 + 7
OPS = {
    "add": modular_add(P),  # period P
    "mul-prime": modular_mul(P),  # period P - 1 (Fermat)
    "mul-composite": modular_mul(P + 1),  # no period: exact counts
}


def _solve(system, mode="batched", plan=None, cache=None):
    """A default solve: on the Fibonacci shapes' table plan, the numpy
    backend evaluates ``batched``; ``rows`` is the python backend's."""
    return solve(
        system,
        plan=plan,
        cache=PlanCache() if cache is None else cache,
        options=EngineOptions(backend="python" if mode == "rows" else "numpy"),
    )


@pytest.mark.parametrize("n", [100, 5000])
@pytest.mark.parametrize("name", sorted(OPS))
def test_values_equal_the_loop_in_every_mode(name, n):
    system = fibonacci_gir_system(n, op=OPS[name])
    oracle = run_gir(system)
    plan = _solve(system).plan
    for mode in ("rows", "batched"):
        assert _solve(system, mode, plan=plan).values == oracle, mode
    assert plan.table.period == OPS[name].power_period


@pytest.mark.parametrize("n", [100, 5000])
@pytest.mark.parametrize("name", ["add", "mul-prime"])
def test_table_holds_int64_residues_of_the_exact_counts(name, n):
    system = fibonacci_gir_system(n, op=OPS[name])
    p = OPS[name].power_period
    table = _solve(system).plan.table
    assert table.period == p
    assert table.exponents.dtype == np.int64
    assert int(table.exponents.min()) >= 1 and int(table.exponents.max()) <= p
    exact = count_paths_dp(build_dependence_graph(system))
    for i in (0, n // 2, n - 1):
        row = dict(table.row_items(i))
        assert row == {t - n: residue(k, p) for t, k in exact[i].items()}
        assert all((row[t - n] - k) % p == 0 for t, k in exact[i].items())


def test_operators_without_a_period_keep_exact_counts():
    system = fibonacci_gir_system(200, op=OPS["mul-composite"])
    table = _solve(system).plan.table
    assert table.period is None
    assert max(table.exponent_list()).bit_length() > 63


def test_counts_that_fit_int64_stay_exact():
    system = random_gir_system(2000, extra_cells=2000, seed=3, op=OPS["add"])
    table = table_plan(system).table
    assert table.period is None and table.exponents.dtype == np.int64


def test_bounded_cap_keeps_exact_counts():
    graph = build_dependence_graph(fibonacci_gir_system(200))
    cap = count_all_paths(graph, max_iterations=64, period=P)
    assert cap.period is None
    assert cap.powers == count_paths_dp(graph)


@pytest.mark.parametrize(
    "system",
    [
        fibonacci_gir_system(100),  # matrix overflow: finishes on the DP
        fibonacci_gir_system(5000),  # deeper than the cutoff: the DP
        random_gir_system(3000, extra_cells=3000, seed=7),  # matrix
    ],
    ids=["fib-overflow", "fib-deep", "random"],
)
def test_cap_work_accounting_is_unchanged(system):
    graph = build_dependence_graph(system)
    exact = count_all_paths(graph)
    reduced = count_all_paths(graph, period=P - 1)
    assert reduced.iterations == exact.iterations
    assert reduced.edge_work == exact.edge_work
    assert reduced.work_per_iteration == exact.work_per_iteration


def test_one_factor_rows_reduced_to_one_still_power():
    # x[i+1] = x[i] + x[i] mod 3: row i is {0: 2**(i+1)}, whose residue
    # is 1 for odd i.  The initial 5 is outside [0, 3), so the rows
    # evaluator runs and must still reduce it: power(5, 1) = 2.
    op = modular_add(3)
    system = double_chain_gir_system(80, op=op)
    system = GIRSystem.build([5] + [0] * 80, system.g, system.f, system.h, op)
    oracle = run_gir(system)
    for backend in ("numpy", "python"):
        res = solve(system, cache=PlanCache(), options=EngineOptions(backend=backend))
        assert res.plan.table.period == 3
        assert res.values == oracle, backend


def test_fingerprints_and_cache_entries_follow_the_period():
    n = 100
    by_period = {
        100: [modular_add(100), modular_mul(101)],  # both period 100
        97: [modular_add(97)],
    }
    fps = {
        p: {Problem.from_system(fibonacci_gir_system(n, op=op)).fingerprint()
            for op in ops}
        for p, ops in by_period.items()
    }
    assert len(fps[100]) == 1 and fps[100].isdisjoint(fps[97])
    cache = PlanCache()
    first = _solve(fibonacci_gir_system(n, op=modular_add(100)), cache=cache)
    shared = _solve(fibonacci_gir_system(n, op=modular_mul(101)), cache=cache)
    other = _solve(fibonacci_gir_system(n, op=modular_add(97)), cache=cache)
    assert not first.cache_hit and shared.cache_hit and not other.cache_hit
    assert shared.plan is first.plan and len(cache) == 2
    assert shared.values == run_gir(fibonacci_gir_system(n, op=modular_mul(101)))


@pytest.mark.parametrize("other", [modular_add(97), OPS["mul-composite"]])
def test_a_plan_of_another_period_is_refused(other):
    plan = _solve(fibonacci_gir_system(100, op=OPS["add"])).plan
    system = fibonacci_gir_system(100, op=other)
    for run in (
        lambda: execute(plan, system, cache=PlanCache()),
        lambda: _solve(system, "rows", plan=plan),
        lambda: solve_batch(system, [system.initial], plan=plan),
    ):
        with pytest.raises(PlanVerificationError) as err:
            run()
        assert err.value.exit_code == 8


def test_an_exact_table_serves_any_operator():
    plan = _solve(fibonacci_gir_system(100, op=OPS["mul-composite"])).plan
    assert plan.table.period is None
    for name in ("add", "mul-prime"):
        system = fibonacci_gir_system(100, op=OPS[name])
        assert _solve(system, plan=plan).values == run_gir(system)


def test_payload_round_trip_keeps_the_period():
    system = fibonacci_gir_system(100, op=OPS["add"])
    plan = _solve(system).plan
    payload = json.loads(json.dumps(plan_to_dict(plan)))
    restored = plan_from_dict(payload)
    assert restored.table.period == P
    assert restored.table.exponent_list() == plan.table.exponent_list()
    assert _solve(system, plan=restored).values == run_gir(system)
    del payload["table"]["period"]  # a payload from before periods
    assert plan_from_dict(payload).table.period is None

