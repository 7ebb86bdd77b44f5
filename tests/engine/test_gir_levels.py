"""GIR level plans: loop-exact sweeps by dependence level, the power
table built only on demand.

A default solve of a GIR system whose dependence graph is at most 62
deep plans a :class:`~repro.engine.plan.LevelLayout` and no CAP table;
the ``levels`` kernel must equal ``run_gir`` bit for bit on every
front door.  Whatever the kernel cannot prove exact -- values outside
a modular domain, int64 sums that could wrap, an explicit
``gir_eval``, the python backend, a policy -- takes the power table
and must still equal the loop.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.check import (
    GIR_LEVEL_MUTATION_KINDS,
    GIR_MUTATION_KINDS,
    mutate_plan,
    mutation_campaign,
    verify_plan,
)
from repro.core import ADD, FLOAT_ADD, run_gir
from repro.core.operators import modular_add, modular_mul
from repro.core.workloads import (
    double_chain_gir_system,
    fibonacci_gir_system,
    random_gir_system,
    scatter_system,
)
from repro.engine import EngineOptions, Session, solve, solve_batch
from repro.engine.plan import plan_from_dict
from repro.engine.planner import PlanCache, plan_nbytes
from repro.engine.problem import Problem
from repro.resilience import SolvePolicy


def _float_gir(n, seed):
    system = random_gir_system(n, extra_cells=n, seed=seed, op=FLOAT_ADD)
    rng = np.random.default_rng(seed)
    return dataclasses.replace(system, initial=rng.uniform(-1, 1, system.m).tolist())


SYSTEMS = {
    "modular_add": lambda: random_gir_system(3000, extra_cells=3000, seed=1),
    "modular_mul": lambda: random_gir_system(
        3000, extra_cells=3000, seed=2, op=modular_mul(10**9 + 7)
    ),
    "float_add": lambda: _float_gir(3000, 3),
    "renamed_scatter": lambda: scatter_system(3000, 20_000, seed=4),
    "double_chain_62": lambda: double_chain_gir_system(62),
    "double_chain_63": lambda: double_chain_gir_system(63),
}
#: What a default solve runs: depth 63 is past the level kernel's reach.
STRATEGY = {name: "levels" for name in SYSTEMS}
STRATEGY["double_chain_63"] = "traces"


def _bits(values):
    """Values with floats as their exact bit patterns."""
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.fixture(params=sorted(SYSTEMS))
def case(request):
    return request.param, SYSTEMS[request.param]()


class TestLoopExact:
    def test_default_solve(self, case):
        name, system = case
        result = solve(system, cache=PlanCache())
        assert result.strategy == STRATEGY[name]
        assert result.plan.strategy == STRATEGY[name]
        assert _bits(result.values) == _bits(run_gir(system))

    def test_session_and_batch(self, case):
        name, system = case
        want = _bits(run_gir(system))
        session = Session(system)
        assert _bits(session.solve().values) == want
        assert session.solve().strategy == STRATEGY[name]
        other = dataclasses.replace(system, initial=list(reversed(system.initial)))
        rows = solve_batch(system, [system.initial, other.initial], cache=PlanCache())
        assert _bits(rows[0]) == want
        assert _bits(rows[1]) == _bits(run_gir(other))

    def test_serialized_round_trip(self, case):
        name, system = case
        plan = solve(system, cache=PlanCache()).plan
        restored = plan_from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored.strategy == plan.strategy
        result = solve(system, plan=restored)
        assert result.strategy == STRATEGY[name]
        assert _bits(result.values) == _bits(run_gir(system))

    def test_level_solve_builds_no_table(self, case):
        name, system = case
        plan = solve(system, cache=PlanCache()).plan
        assert plan.has_table == (STRATEGY[name] == "traces")
        assert (plan.to_dict()["table"] is None) == (not plan.has_table)


def _table_solve(system, **options):
    result = solve(system, cache=PlanCache(), options=EngineOptions(**options))
    assert result.strategy == "traces"
    assert result.values == run_gir(system)
    return result


class TestTableFallback:
    def test_modular_values_outside_the_domain(self):
        system = random_gir_system(2000, extra_cells=2000, seed=5)
        rng = np.random.default_rng(5)
        wild = rng.integers(-(2**40), 2**40, system.m).tolist()
        result = _table_solve(dataclasses.replace(system, initial=wild))
        # a level plan whose table was built on demand
        assert result.plan.strategy == "levels" and result.plan.has_table

    def test_int64_add_that_could_wrap(self):
        system = random_gir_system(2000, extra_cells=2000, seed=6, op=ADD)
        big = dataclasses.replace(system, initial=[2**60] * system.m)
        result = _table_solve(big)
        assert max(result.values) > 2**63  # exact Python ints, no wrap
        small = dataclasses.replace(system, initial=list(range(system.m)))
        assert solve(small, cache=PlanCache()).strategy == "levels"

    @pytest.mark.parametrize("mode", ["rows", "batched"])
    def test_explicit_gir_eval_plans_the_table(self, mode):
        system = random_gir_system(2000, extra_cells=2000, seed=7)
        result = _table_solve(system, backend_options={"gir_eval": mode})
        assert result.plan.levels is None and result.plan.has_table

    def test_python_backend(self):
        system = random_gir_system(500, extra_cells=500, seed=8)
        result = _table_solve(system, backend="python")
        assert result.plan.levels is None

    def test_policy_plans_as_before(self):
        system = random_gir_system(500, extra_cells=500, seed=9)
        result = _table_solve(system, policy=SolvePolicy(max_rounds=64))
        assert result.plan.levels is None and result.plan.has_table
        # a held level plan under a policy evaluates its table
        plan = solve(system, cache=PlanCache()).plan
        held = solve(
            system, plan=plan, options=EngineOptions(policy=SolvePolicy(max_rounds=64))
        )
        assert held.strategy == "traces" and held.values == run_gir(system)


def test_level_plan_is_smaller_than_the_table_plan():
    system = random_gir_system(5000, extra_cells=5000, seed=10)
    level = solve(system, cache=PlanCache()).plan
    table = _table_solve(system, backend_options={"gir_eval": "batched"}).plan
    assert plan_nbytes(level) < plan_nbytes(table)


def test_copying_a_level_plan_builds_no_table():
    system = random_gir_system(200, extra_cells=100, seed=13)
    plan = solve(system, cache=PlanCache()).plan
    assert plan.strategy == "levels" and not plan.has_table
    copy = dataclasses.replace(plan)
    as_dict = dataclasses.asdict(plan)
    assert not plan.has_table and not copy.has_table
    assert as_dict["_table"] is None
    # the copy still builds the same table when a consumer asks
    assert np.array_equal(copy.table.exponents, plan.table.exponents)
    # a built table travels with the copy
    assert dataclasses.replace(plan).table is plan.table


def test_copying_a_table_plan_keeps_its_table():
    system = fibonacci_gir_system(100)
    plan = solve(system, cache=PlanCache()).plan
    assert plan.strategy == "traces" and plan.has_table
    assert dataclasses.replace(plan).table is plan.table
    assert dataclasses.replace(plan, table=None).table is None


def test_level_stats_report_what_ran():
    system = random_gir_system(2000, extra_cells=2000, seed=11)
    result = solve(system, cache=PlanCache(), collect_stats=True)
    stats = result.stats
    assert (stats.cap_iterations, stats.cap_edge_work, stats.power_ops) == (0, 0, 0)
    assert stats.combine_ops == system.n
    assert stats.reduction_depth == result.plan.levels.levels


class TestLevelChecks:
    @pytest.fixture(scope="class")
    def level(self):
        system = scatter_system(300, 40, seed=12, op=modular_add(97))
        system = dataclasses.replace(system, initial=[c % 97 for c in range(40)])
        plan = solve(system, cache=PlanCache()).plan
        assert plan.strategy == "levels" and plan.renamed
        return system, plan

    def test_fresh_plan_accepted(self, level):
        system, plan = level
        report = verify_plan(plan, Problem.from_system(system), system=system)
        assert report.ok, [f.describe() for f in report.errors]
        assert not plan.has_table  # verifying builds no table

    def test_campaign_rejects_every_level_mutant(self, level):
        system, plan = level
        muts = mutation_campaign(plan, seeds=range(4))
        assert {m.kind for m in muts} == set(GIR_LEVEL_MUTATION_KINDS)
        for mut in muts:
            report = verify_plan(mut.plan, system=system)
            assert not report.ok, f"{mut.kind} survived: {mut.description}"

    def test_order_must_be_a_permutation(self, level):
        _system, plan = level
        mut = mutate_plan(plan, "gir_level_swap_order", seed=0).plan
        mut.levels.order[0] = mut.levels.order[1]
        assert "GIR010" in verify_plan(mut).codes()

    def test_level_pointers_must_close(self, level):
        _system, plan = level
        mut = mutate_plan(plan, "gir_level_shift_ptr", seed=0).plan
        mut.levels.level_ptr[-1] -= 1
        assert "GIR011" in verify_plan(mut).codes()

    def test_materialized_table_still_checked(self, level):
        system, plan = level
        mut = mutate_plan(plan, "gir_perturb_exponent", seed=0)
        assert mut is None  # no table built yet
        built = solve(system, cache=PlanCache()).plan
        built.table  # a consumer asks: CAP builds it
        assert built.has_table and verify_plan(built, system=system).ok
        kinds = {m.kind for m in mutation_campaign(built, seeds=range(2))}
        assert kinds == set(GIR_LEVEL_MUTATION_KINDS) | set(GIR_MUTATION_KINDS)
        for kind in GIR_MUTATION_KINDS:
            mut = mutate_plan(built, kind, seed=0)
            if mut is not None:
                assert not verify_plan(mut.plan, system=system).ok, kind
