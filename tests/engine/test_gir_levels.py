"""GIR level plans: loop-exact sweeps by dependence level on every
backend, and a plan holds a level layout or a power table, never both.

A default solve of a GIR system whose dependence graph is at most 62
deep plans a :class:`~repro.engine.plan.LevelLayout` over the graph's
nodes and no CAP table; every backend sweeps it and must equal
``run_gir`` bit for bit, in value and type, on every front door.  The
NumPy backend sweeps ``op.vector_fn`` over the admitted array when
that is provably exact; whatever it cannot prove -- values outside a
modular domain, int64 sums that could wrap, exact objects -- and the
python backend sweep ``op.fn`` over objects.  The power table is
planned only for deeper graphs and under a policy.
"""

import dataclasses
import json
from fractions import Fraction

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
from repro.engine import EngineOptions, Session, execute, solve, solve_batch
from repro.engine.driver import Job
from repro.engine.exec_gir import RowTraceEvaluator, TraceEvaluator, level_exact
from repro.engine.exec_ordinary import admit
from repro.engine.plan import plan_from_dict
from repro.engine.planner import PlanCache, plan_nbytes
from repro.engine.problem import Problem
from repro.resilience import SolvePolicy

from .._legacy_solvers import table_plan


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
        assert (plan.table is None) == (STRATEGY[name] == "levels")
        assert (plan.levels is None) == (STRATEGY[name] == "traces")
        assert (plan.to_dict()["table"] is None) == (plan.table is None)


def _exact(values):
    """Values as ``(type, value)`` with floats as their exact bits."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def _fractions(distinct):
    system = random_gir_system(400, extra_cells=400, seed=20, op=FLOAT_ADD, distinct_g=distinct)
    return dataclasses.replace(system, initial=[Fraction(c, 7) for c in range(system.m)])


def _wild_modular(distinct):
    system = random_gir_system(400, extra_cells=400, seed=21, distinct_g=distinct)
    rng = np.random.default_rng(21)
    return dataclasses.replace(
        system, initial=rng.integers(-(2**40), 2**40, system.m).tolist()
    )


def _could_wrap(distinct):
    # int64 values the sweep cannot prove safe: 2**levels of them could
    # wrap, though the loop's sums stay below 2**63
    system = random_gir_system(400, extra_cells=400, seed=22, op=ADD, distinct_g=distinct)
    return dataclasses.replace(system, initial=[2**59 + c for c in range(system.m)])


def _past_int64(distinct):
    system = random_gir_system(400, extra_cells=400, seed=23, op=ADD, distinct_g=distinct)
    return dataclasses.replace(system, initial=[2**62] * system.m)


OBJECT_CASES = {
    "fractions": _fractions,
    "wild_modular": _wild_modular,
    "could_wrap": _could_wrap,
    "past_int64": _past_int64,
}


class TestObjectSweep:
    """What the typed sweep cannot prove exact, and everything on the
    python backend, sweeps ``op.fn`` over objects: the loop's operands
    in the loop's order, so the values equal ``run_gir`` in value and
    type, and the plan stays a level plan with no table."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "renamed"])
    @pytest.mark.parametrize("name", sorted(OBJECT_CASES))
    def test_every_front_door_sweeps_levels(self, name, distinct, backend):
        system = OBJECT_CASES[name](distinct)
        want = _exact(run_gir(system))
        if name != "fractions":
            assert (max(v for _t, v in want) > 2**63) == (name == "past_int64")
        options = EngineOptions(backend=backend)
        first = solve(system, cache=PlanCache(), options=options)
        plan = first.plan
        typed = admit(system.initial, system.op)
        assert not level_exact(system.op, typed, plan.levels.levels)
        assert plan.renamed == (not distinct)
        size = plan_nbytes(plan)
        session = Session(system, options=options)
        shipped = plan_from_dict(json.loads(json.dumps(plan.to_dict())))
        for result in (
            first,
            solve(system, plan=plan, options=options),
            session.solve(),
            session.solve(),
            execute(shipped, system, options=options),
        ):
            assert result.strategy == "levels"
            assert _exact(result.values) == want
        for held in (plan, session.plan, shipped):
            assert held.table is None and plan_nbytes(held) == size

    def test_in_domain_values_take_the_typed_sweep(self):
        system = random_gir_system(400, extra_cells=400, seed=24)
        job = Job(sched=solve(system, cache=PlanCache()).plan, source=system)
        job.typed = np.asarray(system.initial, dtype=np.int64)
        _values, typed, mode = TraceEvaluator(job).evaluate()
        assert mode == "levels" and typed is job.typed
        _values, base, mode = RowTraceEvaluator(job).evaluate()
        assert mode == "objects" and base.dtype == object

    def test_gir_eval_is_refused(self):
        system = random_gir_system(50, seed=25)
        options = EngineOptions(backend_options={"gir_eval": "batched"})
        for front_door in (
            lambda: solve(system, cache=PlanCache(), options=options),
            lambda: Session(system, options=options),
        ):
            with pytest.raises(ValueError, match="unknown backend option key.*gir_eval"):
                front_door()


class TestTablePlans:
    """The power table is planned for graphs deeper than 62 and under a
    policy; its evaluators -- batched on numpy where the typed setup
    applies, rows otherwise and on python -- must still equal the loop."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_a_policy_plans_the_table(self, backend):
        system = random_gir_system(500, extra_cells=500, seed=9)
        options = EngineOptions(backend=backend, policy=SolvePolicy(max_rounds=64))
        result = solve(system, cache=PlanCache(), options=options)
        assert result.strategy == result.plan.strategy == "traces"
        assert result.plan.levels is None and result.plan.table is not None
        assert result.values == run_gir(system)

    def test_a_held_level_plan_under_a_policy_sweeps_its_levels(self):
        system = random_gir_system(500, extra_cells=500, seed=9)
        plan = solve(system, cache=PlanCache()).plan
        held = solve(
            system, plan=plan, options=EngineOptions(policy=SolvePolicy(max_rounds=64))
        )
        assert held.strategy == "levels" and plan.table is None
        assert held.values == run_gir(system)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("seed", range(6))
    def test_table_evaluators_on_random_shallow_graphs(self, seed, backend):
        system = random_gir_system(300, extra_cells=300, seed=seed, distinct_g=seed % 2 == 0)
        if seed >= 4:  # out of the modular domain: numpy falls to rows
            system = _wild_modular(seed % 2 == 0)
        plan = table_plan(system)
        result = solve(system, plan=plan, options=EngineOptions(backend=backend))
        assert result.strategy == "traces"
        assert _exact(result.values) == _exact(run_gir(system))


def test_level_plan_is_smaller_than_the_table_plan():
    system = random_gir_system(5000, extra_cells=5000, seed=10)
    level = solve(system, cache=PlanCache()).plan
    assert plan_nbytes(level) < plan_nbytes(table_plan(system))


def test_copying_a_plan_keeps_its_one_layout():
    system = fibonacci_gir_system(100)
    plan = solve(system, cache=PlanCache()).plan
    assert plan.strategy == "traces" and plan.levels is None
    assert dataclasses.replace(plan).table is plan.table
    assert dataclasses.replace(plan, table=None).table is None
    level = solve(random_gir_system(200, extra_cells=100, seed=13), cache=PlanCache()).plan
    assert level.strategy == "levels" and level.table is None
    assert dataclasses.asdict(level)["table"] is None
    assert dataclasses.replace(level).levels is level.levels


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
    options = EngineOptions()
    want = _bits(run_gir(system))
    held = None if layout == "levels" else table_plan(system)
    result = solve(system, plan=held, cache=PlanCache(), options=options)
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
        assert plan.table is None

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

    def test_a_table_plan_of_the_system_is_checked(self, level):
        """The table rules run on table plans: a level plan has no table
        to mutate, the same system's table plan verifies and takes the
        table mutators alone, and every mutant is rejected."""
        system, plan = level
        assert mutate_plan(plan, "gir_perturb_exponent", seed=0) is None
        table = table_plan(system)
        assert table.levels is None and verify_plan(table, system=system).ok
        kinds = {m.kind for m in mutation_campaign(table, seeds=range(2))}
        assert kinds == set(GIR_MUTATION_KINDS)
        for kind in GIR_MUTATION_KINDS:
            mut = mutate_plan(table, kind, seed=0)
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


def test_a_dispatched_level_solve_reports_its_stats():
    """An ordinary-shaped GIR system dispatches to an ordinary plan; on
    a level layout its stats are the ordinary plan's, not the GIR level
    sweeps' (which read a GIR plan's own ``levels``)."""
    rng = np.random.default_rng(15)
    n, m = 2000, 2003
    g, f = rng.permutation(m)[:n], rng.integers(0, m, n)
    gir = GIRSystem.build(rng.uniform(-1, 1, m).tolist(), g, f, g, FLOAT_ADD)
    result = solve(gir, cache=PlanCache(), collect_stats=True)
    assert result.plan.dispatch is not None and result.strategy == "levels"
    assert result.stats.ordinary_dispatch and result.stats.power_ops == 0
    assert _bits(result.values) == _bits(run_gir(gir))
