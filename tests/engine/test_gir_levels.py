"""GIR level plans: loop-exact sweeps by dependence level, the power
table built only on demand.

A default solve of a GIR system whose dependence graph is at most 62
deep plans a :class:`~repro.engine.plan.LevelLayout` over the graph's
nodes and no CAP table;
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
    GIR_MUTATION_KINDS,
    LEVEL_MUTATION_KINDS,
    mutate_plan,
    mutation_campaign,
    verify_plan,
)
from repro.core import ADD, FLOAT_ADD, GIRSystem, OrdinaryIRSystem, run_gir
from repro.core.operators import modular_add, modular_mul
from repro.core.sequential import run_ordinary
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
#: The mutation classes of a GIR level plan.
#: (a one-iteration layout has no segment offset to move)
LEVEL_KINDS = set(LEVEL_MUTATION_KINDS) - {"level_shift_offset"}
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


@pytest.mark.parametrize("layout", ["levels", "table"])
@pytest.mark.parametrize("renamed", [False, True], ids=["distinct", "renamed"])
def test_iterations_write_the_systems_g_or_its_version_cells(renamed, layout):
    """A GIR plan stores no output cells: the scatter writes at the
    system's ``g``, or at the version cells ``m + i`` of a renamed plan.
    Both layouts and both scatter paths (typed values, Python rows)
    equal the loop bit for bit, and so does the plan shipped as JSON
    (an exact operator: a power table reassociates float products)."""
    if renamed:
        system = scatter_system(2000, 3000, seed=14, op=modular_mul(10**9 + 7))
        system = dataclasses.replace(system, initial=list(range(2, system.m + 2)))
    else:
        system = random_gir_system(2000, extra_cells=2000, seed=14)
    table = {"backend_options": {"gir_eval": "batched"}}
    options = EngineOptions(**({} if layout == "levels" else table))
    want = _bits(run_gir(system))
    result = solve(system, cache=PlanCache(), options=options)
    plan = result.plan
    assert result.strategy == plan.strategy == {"levels": "levels", "table": "traces"}[layout]
    assert plan.renamed == renamed == (plan.final_cell_of is not None)
    assert _bits(result.values) == want
    payload = json.loads(json.dumps(plan.to_dict()))
    assert payload["schema_version"] == 4 and "out_cells" not in payload
    shipped = plan_from_dict(payload)
    assert shipped.renamed == plan.renamed
    assert verify_plan(shipped, system=system).ok
    for held in (plan, shipped):
        for backend in ("numpy", "python"):
            got = solve(system, plan=held, options=dataclasses.replace(options, backend=backend))
            assert _bits(got.values) == want, (held is plan, backend)
    with pytest.raises(ValueError, match="schema_version"):
        plan_from_dict({**payload, "schema_version": 3})


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
        assert {m.kind for m in muts} == LEVEL_KINDS
        for mut in muts:
            report = verify_plan(mut.plan, system=system)
            assert not report.ok, f"{mut.kind} survived: {mut.description}"

    def test_order_must_be_a_permutation(self, level):
        _system, plan = level
        mut = mutate_plan(plan, "level_swap_order", seed=0).plan
        mut.levels.write[0] = mut.levels.write[1]
        assert "LVL001" in verify_plan(mut).codes()

    def test_renaming_is_checked_against_the_system(self, level):
        """A plan is renamed iff it holds a projection (SCH007, bare),
        and given the system iff its ``g`` repeats a cell, with the
        projection the renaming gives (GIR013)."""
        system, plan = level
        flipped = dataclasses.replace(plan, renamed=False)
        assert verify_plan(flipped).codes() == ["SCH007"]
        unrenamed = dataclasses.replace(plan, renamed=False, final_cell_of=None)
        assert verify_plan(unrenamed).ok  # a plan of some distinct g
        assert "GIR013" in verify_plan(unrenamed, system=system).codes()
        moved = dataclasses.replace(plan, final_cell_of=np.roll(plan.final_cell_of, 1))
        assert verify_plan(moved).ok  # still a projection into the array
        assert "GIR013" in verify_plan(moved, system=system).codes()
        distinct = random_gir_system(300, extra_cells=100, seed=15)
        plain = solve(distinct, cache=PlanCache()).plan
        assert not plain.renamed and verify_plan(plain, system=distinct).ok
        claimed = dataclasses.replace(
            plain, renamed=True, final_cell_of=np.arange(plain.m, dtype=np.int64)
        )
        assert "GIR013" in verify_plan(claimed, system=distinct).codes()

    def test_level_pointers_must_close(self, level):
        _system, plan = level
        mut = mutate_plan(plan, "level_shift_ptr", seed=0).plan
        mut.levels.level_ptr[-1] -= 1
        assert "LVL002" in verify_plan(mut).codes()

    def test_materialized_table_still_checked(self, level):
        system, plan = level
        mut = mutate_plan(plan, "gir_perturb_exponent", seed=0)
        assert mut is None  # no table built yet
        built = solve(system, cache=PlanCache()).plan
        built.table  # a consumer asks: CAP builds it
        assert built.has_table and verify_plan(built, system=system).ok
        kinds = {m.kind for m in mutation_campaign(built, seeds=range(2))}
        assert kinds == LEVEL_KINDS | set(GIR_MUTATION_KINDS)
        for kind in GIR_MUTATION_KINDS:
            mut = mutate_plan(built, kind, seed=0)
            if mut is not None:
                assert not verify_plan(mut.plan, system=system).ok, kind


def test_ordinary_is_gir_with_h_equal_to_g():
    """A random forest solved as an ordinary system and again as a GIR
    system with ``h = g`` (no ordinary dispatch) plans the same
    dependence levels -- one layout type, over cells and over graph
    nodes -- and both solves equal the loop bit for bit."""
    rng = np.random.default_rng(14)
    n, m = 20_000, 20_003
    g, f = rng.permutation(m)[:n], rng.integers(0, m, n)
    initial = rng.uniform(-1, 1, m).tolist()
    ordinary = OrdinaryIRSystem.build(initial, g, f, FLOAT_ADD)
    gir = GIRSystem.build(initial, g, f, g, FLOAT_ADD)
    want = _bits(run_ordinary(ordinary))
    cell = solve(ordinary, cache=PlanCache())
    node = solve(gir, cache=PlanCache(), allow_ordinary_dispatch=False)
    assert cell.strategy == node.strategy == "levels"
    assert node.plan.dispatch is None and cell.plan.levels.read_h is None
    assert np.array_equal(cell.plan.levels.level_ptr, node.plan.levels.level_ptr)
    assert _bits(cell.values) == _bits(node.values) == want
