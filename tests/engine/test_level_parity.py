"""Level-sweep differential suite: on a level plan -- a forest at most
62 deep that does not chain -- the numpy level kernels sweep one
vector statement per dependence level in cell space, so ``solve``,
``Session.solve``, stacked ``solve_batch`` rows and a plan shipped as
JSON return the sequential loop's values bit for bit: ``run_ordinary``
for the typed ufunc operators (MIN / MAX on NaN-free floats), and
``run_moebius_sequential`` for Moebius solves on the affine path and
``auto`` rational ones, whose kernel evaluates the loop's own formula
(``_zmul`` structural zeros included).

The fallbacks keep the round schedule, built lazily from ``(g, f)``:
the python backend, a ``max_rounds`` policy, a non-ufunc operator, an
int64 solve that could wrap (exact Python ints) and an explicitly
chosen rational or object path.  Level plans verify, every level
mutant is rejected, and copying a plan never builds its lazy state.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro import obs
from repro.check import LEVEL_MUTATION_KINDS, mutation_campaign, verify_plan
from repro.core import ADD, FLOAT_ADD, FLOAT_MUL, MAX, MIN, OrdinaryIRSystem
from repro.core.moebius import (
    AffineRecurrence,
    RationalRecurrence,
    run_moebius_sequential,
)
from repro.core.ordinary import _sequential_baseline
from repro.core.sequential import run_ordinary
from repro.engine import EngineOptions, Session, execute, solve, solve_batch
from repro.engine.plan import plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache, plan_nbytes
from repro.engine.problem import Problem
from repro.resilience import SolvePolicy

from .test_chain_parity import assert_bit_identical


def forest_maps(n, seed=0, extra=3):
    """A random forest: injective ``g``, uniform ``f`` (it plans levels)."""
    rng = np.random.default_rng(seed)
    m = n + extra
    return rng.permutation(m)[:n], rng.integers(0, m, n), m


def zigzag_maps(depth):
    """Two chains whose runs stay short: ``A`` steps +1, +2, +1, ...
    from iteration 0, ``depth`` deep, and ``B`` (one stride-3 run, no
    deeper) takes the iterations between.  ``A``'s runs are pairs, so
    past one level no chain layout forms and the depth decides between
    levels (<= 62) and rounds; a one-level forest plans chains."""
    a = np.cumsum([0] + [1 + k % 2 for k in range(depth)])
    n = int(a[-1]) + 2
    b = np.setdiff1d(np.arange(n), a)
    f = np.full(n, n)  # the roots read a never-written cell
    f[a[1:]], f[b[1:]] = a[:-1], b[:-1]
    return np.arange(n), f, n + 1


def values(op, m, seed=1):
    rng = np.random.default_rng(seed)
    if op is ADD:
        return rng.integers(-1000, 1000, m).tolist()
    if op is FLOAT_MUL:
        return (1.0 + rng.random(m) / 10).tolist()
    return rng.uniform(-2.0, 2.0, m).tolist()


def rows_of(op, m, k=3):
    return [values(op, m, seed) for seed in range(2, 2 + k)]


def system(op, maps, seed=1):
    g, f, m = maps
    return OrdinaryIRSystem.build(values(op, m, seed), g, f, op)


def shipped(plan):
    return plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))


def assert_close(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if isinstance(y, float) and math.isnan(y):
            assert math.isnan(x)
        else:
            assert x == pytest.approx(y, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# ordinary level plans
# ---------------------------------------------------------------------------

OPERATORS = (FLOAT_ADD, FLOAT_MUL, ADD, MIN, MAX)


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.name)
def test_every_path_matches_the_loop(op):
    sys_ = system(op, forest_maps(3000))
    want = run_ordinary(sys_)
    result = solve(sys_, cache=PlanCache())
    plan = result.plan
    assert result.strategy == plan.strategy == "levels"
    assert_bit_identical(result.values, want)
    session = Session(sys_)
    rows = rows_of(op, sys_.m)
    for row in rows:
        got = session.solve(row)
        assert got.strategy == "levels"
        assert_bit_identical(got.values, run_ordinary(dataclasses.replace(sys_, initial=row)))
    for stacked in (session.solve_batch(rows), solve_batch(sys_, rows, cache=PlanCache())):
        for row, got in zip(rows, stacked):
            assert_bit_identical(got, run_ordinary(dataclasses.replace(sys_, initial=row)))
    again = shipped(plan)
    assert again.strategy == "levels" and not again.has_pred and not again.has_steps
    assert verify_plan(again, Problem.from_system(sys_)).ok
    assert_bit_identical(execute(again, sys_).values, want)
    # no consumer on this path built the lazy state
    assert not plan.has_pred and not plan.has_steps


def test_int_add_that_could_wrap_escalates_exactly():
    g, f, m = forest_maps(400)
    sys_ = OrdinaryIRSystem.build([2**62] * m, g, f, ADD)
    result = solve(sys_, cache=PlanCache())
    assert result.plan.strategy == "levels" and result.strategy == "rounds"
    assert result.values == run_ordinary(sys_)
    assert max(result.values) > 2**63  # exact Python ints, not wrapped


@pytest.mark.parametrize(
    "depth, strategy", [(0, "levels"), (1, "chains"), (62, "levels"), (63, "rounds")]
)
def test_depth_limit(depth, strategy):
    sys_ = system(FLOAT_ADD, zigzag_maps(depth))
    result = solve(sys_, cache=PlanCache(), collect_stats=True)
    assert result.plan.strategy == result.strategy == strategy
    assert_close(result.values, run_ordinary(sys_))
    if strategy == "levels":
        assert result.values == run_ordinary(sys_)
        assert result.plan.levels.levels == depth + 1
        assert result.stats.rounds == depth  # one statement per level past the roots
        assert result.stats.init_ops == 2
        assert result.plan.trace_bound == depth + 2


def test_a_deep_forest_is_found_without_sweeping_to_the_limit():
    sys_ = system(FLOAT_ADD, zigzag_maps(5000))
    plan = solve(sys_, cache=PlanCache()).plan
    assert plan.strategy == "rounds" and plan.has_pred and plan.has_steps


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_systems(n):
    sys_ = OrdinaryIRSystem.build([1.5, 2.5], np.arange(n), np.ones(n, dtype=int), FLOAT_MUL)
    result = solve(sys_, cache=PlanCache(), collect_stats=True)
    assert result.strategy == "levels"
    assert result.values == run_ordinary(sys_)
    assert result.stats.rounds == 0 and result.stats.init_ops == n
    assert verify_plan(result.plan).ok


def test_roots_read_initial_values_and_f_initial():
    # iteration 0 reads cell 1, which the later root (iteration 1)
    # writes in the same level: it must still read the initial value
    g, f = np.array([0, 1, 2, 3]), np.array([1, 4, 0, 2])
    sys_ = OrdinaryIRSystem.build([1.0, 2.0, 3.0, 4.0, 5.0], g, f, FLOAT_ADD)
    result = solve(sys_, cache=PlanCache())
    assert result.plan.strategy == "levels"
    assert result.values == run_ordinary(sys_)
    f_initial = [10.0, 20.0, 30.0, 40.0, 50.0]
    got = Session(sys_).solve(f_initial=f_initial).values
    assert got == _sequential_baseline(sys_, f_initial)


def test_stats_spans_and_counters_count_levels():
    sys_ = system(FLOAT_ADD, forest_maps(2000))
    with obs.observed() as (tracer, registry):
        result = solve(sys_, cache=PlanCache(), collect_stats=True)
    stats, plan = result.stats, result.plan
    sizes = np.diff(plan.levels.level_ptr).tolist()
    assert stats.rounds == plan.levels.levels - 1
    assert stats.active_per_round == sizes[1:]
    assert stats.init_ops == sizes[0]
    assert stats.init_ops + sum(stats.active_per_round) == sys_.n
    levels = tracer.find("solver.round")
    assert [s.attributes["active"] for s in levels] == stats.active_per_round
    assert registry.value("solver.rounds", engine="numpy") == stats.rounds
    assert registry.value("solver.init_ops", engine="numpy") == stats.init_ops
    (root,) = tracer.find("solver.ordinary")
    assert root.attributes["strategy"] == "levels"
    assert root.attributes["in_place"] is True
    assert root.attributes["rounds"] == stats.rounds
    # the plan's own round count is the pointer-jumping one, from depths
    assert plan.rounds == max(plan.levels.levels - 1, 0).bit_length()
    assert not plan.has_steps


@pytest.mark.parametrize(
    "options",
    [
        EngineOptions(backend="python"),
        EngineOptions(policy=SolvePolicy(max_rounds=64)),
    ],
    ids=["python", "max_rounds"],
)
def test_round_fallbacks_agree(options):
    sys_ = system(FLOAT_MUL, forest_maps(1500))
    result = solve(sys_, cache=PlanCache(), options=options)
    assert result.plan.strategy == "levels" and result.strategy == "rounds"
    assert_close(result.values, run_ordinary(sys_))


def test_a_non_ufunc_operator_takes_rounds():
    from repro.core.operators import make_operator

    mul = make_operator("obj_mul", lambda x, y: x * y, commutative=True, dtype=None)
    sys_ = system(FLOAT_MUL, forest_maps(500))
    sys_ = dataclasses.replace(sys_, op=mul)
    result = solve(sys_, cache=PlanCache())
    assert result.plan.strategy == "levels" and result.strategy == "rounds"
    assert_close(result.values, run_ordinary(sys_))


def test_copying_a_level_plan_builds_nothing():
    sys_ = system(FLOAT_ADD, forest_maps(1000))
    plan = solve(sys_, cache=PlanCache()).plan
    before = plan_nbytes(plan)
    copy = dataclasses.replace(plan)
    as_dict = dataclasses.asdict(plan)
    assert as_dict["_pred"] is None and as_dict["_steps"] is None
    for p in (plan, copy):
        assert not p.has_pred and not p.has_steps
    assert plan_nbytes(plan) == plan_nbytes(copy) == before
    layout = plan.levels
    assert before == layout.nbytes  # the layout alone: no g, no f
    # a rounds consumer builds both lazily from the system's maps, and
    # the bytes show it
    steps = copy.round_steps(sys_.g, sys_.f)
    assert copy.has_pred and copy.has_steps and not plan.has_pred
    assert plan_nbytes(copy) == before + copy.pred.nbytes + sum(
        a.nbytes + s.nbytes for a, s in steps
    )


def test_level_plans_verify_and_mutants_are_rejected():
    sys_ = system(FLOAT_ADD, forest_maps(600))
    plan = solve(sys_, cache=PlanCache()).plan
    assert verify_plan(plan, Problem.from_system(sys_)).ok
    mutants = [
        mut
        for mut in mutation_campaign(plan, seeds=range(6))
        if mut.kind in LEVEL_MUTATION_KINDS
    ]
    # (one-iteration segments: no segment offset to move)
    assert {mut.kind for mut in mutants} == set(LEVEL_MUTATION_KINDS) - {
        "level_shift_offset"
    }
    for mut in mutants:
        assert not verify_plan(mut.plan, system=sys_).ok, mut.description
    assert not plan.has_pred and not plan.has_steps  # mutants are copies


# ---------------------------------------------------------------------------
# Moebius level plans
# ---------------------------------------------------------------------------


def affine_forest(n, seed=0, self_term=False):
    rng = np.random.default_rng(seed)
    m = n + 1
    return AffineRecurrence.build(
        rng.uniform(-1.0, 1.0, m).tolist(),
        rng.permutation(m)[:n],
        rng.integers(0, m, n),
        rng.uniform(-1.0, 1.0, n).tolist(),
        rng.uniform(-1.0, 1.0, n).tolist(),
        self_term=self_term,
    )


def rational_forest(n, seed=0, self_term=False):
    rng = np.random.default_rng(seed)
    m = n + 2
    return RationalRecurrence.build(
        rng.uniform(0.5, 1.5, m).tolist(),
        rng.permutation(m)[:n],
        rng.integers(0, m, n),
        rng.uniform(0.5, 1.5, n).tolist(),
        rng.uniform(0.5, 1.5, n).tolist(),
        rng.uniform(0.1, 0.9, n).tolist(),
        rng.uniform(1.0, 2.0, n).tolist(),
        self_term=self_term,
    )


@pytest.mark.parametrize(
    "build, self_term",
    [
        (affine_forest, False),
        (affine_forest, True),
        (rational_forest, False),
        (rational_forest, True),
    ],
)
def test_moebius_forests_match_the_loop(build, self_term):
    rec = build(2000, self_term=self_term)
    want = run_moebius_sequential(rec)
    result = solve(rec, cache=PlanCache())
    assert result.plan.strategy == result.strategy == "levels"
    assert result.values == want
    session = Session(rec)
    rng = np.random.default_rng(7)
    rows = [rng.uniform(0.5, 1.5, rec.m).tolist() for _ in range(3)]
    for row in rows:
        got = session.solve(row)
        assert got.strategy == "levels"
        assert got.values == run_moebius_sequential(dataclasses.replace(rec, initial=row))
    for row, got in zip(rows, session.solve_batch(rows)):
        assert got == run_moebius_sequential(dataclasses.replace(rec, initial=row))
    again = shipped(result.plan)
    assert verify_plan(again).ok
    assert execute(again, rec).values == want
    assert not result.plan.has_pred and not result.plan.has_steps


def test_moebius_level_sweep_keeps_structural_zeros():
    # constant maps (a = 0) and rational rows with c = 0 read an inf
    # cell: the loop's exact zero absorbs it, as the sweep's does
    inf = math.inf
    rec = RationalRecurrence.build(
        [inf, -inf, 2.0, 3.0, 4.0, 5.0, 6.0],
        [2, 3, 4, 5, 6],
        [0, 1, 0, 1, 4],
        [0.0, 2.0, 0.0, 0.5, 1.5],
        [1.0, 1.0, 3.0, 0.25, 1.0],
        [0.0, 0.0, 0.5, 0.0, 0.0],
        [1.0, 1.0, 2.0, 4.0, 1.0],
    )
    want = run_moebius_sequential(rec)
    result = solve(rec, cache=PlanCache())
    assert result.strategy == "levels"
    assert_bit_identical(result.values, want)
    assert not any(isinstance(v, float) and math.isnan(v) for v in result.values)


def test_a_caller_float_array_is_not_written():
    rec = affine_forest(500)
    initial = np.asarray(rec.initial, dtype=np.float64)
    before = initial.copy()
    got = solve(dataclasses.replace(rec, initial=initial), cache=PlanCache())
    assert got.strategy == "levels"
    assert np.array_equal(initial, before)
    assert got.values == run_moebius_sequential(rec)


@pytest.mark.parametrize(
    "options",
    [
        EngineOptions(backend="python"),
        EngineOptions(policy=SolvePolicy(max_rounds=64)),
        EngineOptions(backend_options={"path": "rational"}),
        EngineOptions(backend_options={"path": "object"}),
    ],
    ids=["python", "max_rounds", "rational", "object"],
)
def test_moebius_fallbacks_keep_rounds(options):
    rec = affine_forest(800)
    result = solve(rec, cache=PlanCache(), options=options)
    assert result.plan.strategy == "levels"
    assert result.strategy == "rounds"
    assert_close(result.values, run_moebius_sequential(rec))


def test_the_explicit_affine_path_sweeps_levels_too():
    rec = affine_forest(800)
    options = EngineOptions(backend_options={"path": "affine"})
    result = solve(rec, cache=PlanCache(), options=options)
    assert result.strategy == "levels"
    assert result.values == run_moebius_sequential(rec)
    rational = RationalRecurrence.build([1.0, 1.0], [1], [0], [1.0], [0.0], [1.0], [1.0])
    with pytest.raises(Exception, match="requires c = 0"):
        solve(rational, cache=PlanCache(), options=options)
