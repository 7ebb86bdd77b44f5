"""Plans hold no ``g`` / ``f``: a chain or level plan its layout alone.

An ordinary or Moebius chain or level plan (and a GIR dispatch plan
nesting one) keeps only its :class:`~repro.engine.plan.LevelLayout` --
whose ``write`` / ``read`` are the two maps again, in segment order --
and a rounds plan its ``pred`` (plus the round schedule a rounds solve
built from it, in memory), so a cached plan pins none of the arrays of
the system it was built for.
Every consumer that needs iteration-order maps reads them from the
request's own system: the Moebius level kernel, and the rounds
consumers (python backend and failover rung, ``max_rounds`` policies,
non-ufunc operators, the Moebius ``rational`` / ``object`` paths),
which build the round schedule through ``plan.round_steps(g, f)``.

Each parity test plans one system into a fresh cache, drops it, and
solves a *fresh* system of equal maps (new arrays) on the cached
plan: the values are the loop's, bit for bit where the fold order is
the loop's, within the usual tolerance where rounds reassociate.
"""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from repro.check import LEVEL_MUTATION_KINDS, mutation_campaign, verify_plan
from repro.core import ADD, FLOAT_ADD, OrdinaryIRSystem
from repro.core.moebius import run_moebius_sequential
from repro.core.operators import make_operator
from repro.core.sequential import run_ordinary
from repro.engine import EngineOptions, execute, get_backend, solve, solve_batch
from repro.engine.exec_ordinary import NumpyLevels
from repro.engine.plan import PLAN_SCHEMA_VERSION, plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache, plan_nbytes
from repro.engine.problem import Problem
from repro.resilience import SolvePolicy

from .test_chain_parity import assert_bit_identical
from .test_level_parity import affine_forest, assert_close, forest_maps


def forest(op=ADD, n=1500, seed=0):
    """A random forest system (it plans levels); ``seed`` fixes maps
    and values, so two calls give equal systems on distinct arrays."""
    g, f, m = forest_maps(n, seed)
    rng = np.random.default_rng(seed + 1)
    if op is ADD:
        initial = rng.integers(-1000, 1000, m).tolist()
    else:
        initial = rng.uniform(-2.0, 2.0, m).tolist()
    return OrdinaryIRSystem.build(initial, g, f, op)


def chain(n=5000):
    """A stride-2 chain system (it plans two runs in one level)."""
    idx = np.arange(n)
    return OrdinaryIRSystem.build(
        np.linspace(1.0, 2.0, n + 2).tolist(), idx + 2, idx, FLOAT_ADD
    )


def zigzag(n=2000):
    """Two chains whose strides alternate 1 and 3: deeper than 62 and
    cut into short runs, so it plans rounds."""
    idx = np.arange(n)
    f = np.where(idx % 2 == 1, idx - 1, idx - 3)
    f[[0, 2]] = n
    return OrdinaryIRSystem.build(np.ones(n + 1).tolist(), idx, f, FLOAT_ADD)


def cached(make, cache):
    """Plan ``make()``'s system into ``cache`` and drop it; returns the
    map-less cached plan and a fresh, equal system (new arrays)."""
    first = make()
    plan = solve(first, cache=cache).plan
    assert plan.strategy == "levels" and not {"g", "f"} & set(plan_to_dict(plan))
    second = make()
    assert second.g is not first.g and np.array_equal(second.g, first.g)
    return plan, second


def hit(source, cache, options=None, **kwargs):
    """Solve ``source`` on ``cache``'s plan (asserting the hit)."""
    before = cache.hits
    result = solve(source, cache=cache, options=options, **kwargs)
    assert cache.hits == before + 1
    return result


# ---------------------------------------------------------------------------
# memory: the cache pins no system maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda: forest(FLOAT_ADD, 5000), lambda: affine_forest(5000), chain, zigzag],
    ids=["forest", "affine", "chain", "zigzag"],
)
def test_a_cached_level_plan_pins_no_system_maps(make):
    cache = PlanCache()
    source = make()
    buffers = [a if a.base is None else a.base for a in (source.g, source.f)]
    refs = [weakref.ref(buf) for buf in buffers]
    result = solve(source, cache=cache)
    plan, fingerprint = result.plan, result.plan.fingerprint
    del source, result, buffers
    gc.collect()
    assert all(ref() is None for ref in refs)  # the maps are freed ...
    assert cache.get(fingerprint) is plan  # ... while the plan stays cached
    assert not {"g", "f"} & set(plan_to_dict(plan))
    if plan.strategy == "rounds":  # its own pred, and the schedule the solve built
        assert plan.has_pred and plan_nbytes(plan) > plan.pred.nbytes
    else:  # the layout alone, before any rounds consumer runs
        assert plan_nbytes(plan) == plan.levels.nbytes
    assert cache.info()["bytes"] == plan_nbytes(plan)


def test_a_map_less_plan_does_not_guess_its_schedule():
    plan, sys_ = cached(forest, PlanCache())
    for name in ("pred", "terminal_idx"):
        with pytest.raises(ValueError, match="round_steps"):
            getattr(plan, name)
    with pytest.raises(ValueError, match="round_steps"):
        plan.round_steps()  # no maps given
    steps = plan.round_steps(sys_.g, sys_.f)
    assert plan.has_pred and plan.round_steps() is steps
    assert not hasattr(plan, "g")  # building the schedule keeps no maps either
    assert plan.rounds == len(steps)


# ---------------------------------------------------------------------------
# parity: every consumer reads the request's own maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "options",
    [EngineOptions(backend="python"), EngineOptions(policy=SolvePolicy(max_rounds=64))],
    ids=["python", "max_rounds"],
)
def test_round_consumers_on_a_cached_plan(options):
    cache = PlanCache()
    plan, sys_ = cached(forest, cache)
    result = hit(sys_, cache, options)
    assert result.plan is plan and result.strategy == "rounds"
    assert result.values == run_ordinary(sys_)  # int ADD: exact in any order
    # the schedule stays cached, beside the pred it was built from
    assert plan_nbytes(plan) > plan.levels.nbytes + plan.pred.nbytes
    assert not hasattr(plan, "g")


def test_the_failover_rung_on_a_cached_plan(monkeypatch):
    class Corrupt(NumpyLevels):
        def solved(self):  # every cell off by one, in place
            out = super().solved()
            out += 1
            return out

    cache = PlanCache()
    plan, sys_ = cached(forest, cache)
    monkeypatch.setitem(get_backend("numpy").kernels, "levels", Corrupt)
    result = hit(sys_, cache, EngineOptions(checked=True))
    assert result.backend == "python" and result.failover_from == "numpy"
    assert result.values == run_ordinary(sys_)


def test_a_non_ufunc_operator_on_a_cached_plan():
    mul = make_operator("obj_add", lambda x, y: x + y, commutative=True, dtype=None)
    cache = PlanCache()
    plan, sys_ = cached(forest, cache)
    sys_ = dataclasses.replace(sys_, op=mul)
    result = hit(sys_, cache)
    assert result.plan is plan and result.strategy == "rounds"
    assert result.values == run_ordinary(sys_)


def test_stats_and_batches_on_a_cached_plan():
    cache = PlanCache()
    plan, sys_ = cached(lambda: forest(FLOAT_ADD), cache)
    result = hit(sys_, cache, collect_stats=True)
    assert result.strategy == "levels"
    assert_bit_identical(result.values, run_ordinary(sys_))
    sizes = np.diff(plan.levels.level_ptr).tolist()
    assert result.stats.init_ops == sizes[0]
    assert result.stats.active_per_round == sizes[1:]
    rng = np.random.default_rng(9)
    rows = [rng.uniform(-2.0, 2.0, sys_.m).tolist() for _ in range(3)]
    stacked = solve_batch(sys_, rows, cache=cache)
    for row, got in zip(rows, stacked):
        assert_bit_identical(got, run_ordinary(dataclasses.replace(sys_, initial=row)))
    assert not plan.has_pred  # the level sweeps never build rounds


@pytest.mark.parametrize(
    "options, exact",
    [
        (None, True),
        (EngineOptions(backend="python"), False),
        (EngineOptions(policy=SolvePolicy(max_rounds=64)), False),
        (EngineOptions(backend_options={"path": "rational"}), False),
        (EngineOptions(backend_options={"path": "object"}), False),
    ],
    ids=["levels", "python", "max_rounds", "rational", "object"],
)
def test_moebius_consumers_on_a_cached_plan(options, exact):
    cache = PlanCache()
    plan, rec = cached(lambda: affine_forest(1200, self_term=True), cache)
    result = hit(rec, cache, options)
    assert result.strategy == ("levels" if exact else "rounds")
    want = run_moebius_sequential(rec)
    if exact:
        assert result.values == want
    else:
        assert_close(result.values, want)
    assert plan.family == "moebius" and not hasattr(plan, "g")


def test_a_moebius_batch_on_a_cached_plan():
    cache = PlanCache()
    plan, rec = cached(lambda: affine_forest(1200), cache)
    rng = np.random.default_rng(3)
    rows = [rng.uniform(-1.0, 1.0, rec.m).tolist() for _ in range(3)]
    for row, got in zip(rows, solve_batch(rec, rows, cache=cache)):
        assert got == run_moebius_sequential(dataclasses.replace(rec, initial=row))
    assert cache.hits == 1 and not plan.has_pred  # no rounds state built


# ---------------------------------------------------------------------------
# serialization and verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [forest, lambda: affine_forest(800), chain], ids=["forest", "affine", "chain"]
)
def test_a_plan_file_holds_no_maps_and_solves(make):
    first = make()
    plan, source = solve(first, cache=PlanCache()).plan, make()
    payload = plan_to_dict(plan)
    assert payload["schema_version"] == PLAN_SCHEMA_VERSION == 7
    assert "levels" in payload and not {"g", "f", "pred", "steps"} & set(payload)
    plan.round_steps(source.g, source.f)
    assert plan_to_dict(plan) == payload  # a built schedule is not written
    shipped = plan_from_dict(json.loads(json.dumps(payload)))
    assert shipped.family == plan.family and shipped.strategy == plan.strategy
    for version in (5, 6, 99):  # another schema is refused, not guessed
        with pytest.raises(ValueError, match="schema_version"):
            plan_from_dict({**payload, "schema_version": version})
    sequential = run_moebius_sequential if plan.family == "moebius" else run_ordinary
    assert execute(shipped, source).values == sequential(source)
    python = execute(shipped, source, options=EngineOptions(backend="python"))
    assert_close(python.values, sequential(source))


@pytest.mark.parametrize("make", [forest, lambda: affine_forest(800)], ids=["forest", "affine"])
def test_level_mutants_are_rejected_given_the_system(make):
    plan, source = cached(make, PlanCache())
    problem = Problem.from_system(source)
    for system in (source, None):  # a Problem carries the maps too
        assert verify_plan(plan, problem, system=system).ok
    bare = verify_plan(plan)  # the layout alone
    assert bare.ok and "LVL004" not in bare.codes()
    mutants = mutation_campaign(plan, seeds=range(6))
    # (one-iteration segments: no segment offset to move)
    assert {mut.kind for mut in mutants} == set(LEVEL_MUTATION_KINDS) - {
        "level_shift_offset"
    }
    for mut in mutants:
        assert not verify_plan(mut.plan, system=source).ok, mut.description
        # the layout alone catches a duplicated write, and an iteration
        # moved into its operand's level past level 0 (moved into level
        # 0, it reads an initial value there: only the maps refute that)
        if mut.kind == "level_duplicate_write" or mut.data.get("pointer", 1) > 1:
            assert not verify_plan(mut.plan).ok, mut.description


def test_the_verify_seam_proves_reads_against_the_system():
    from repro.check import mutate_plan
    from repro.errors import PlanVerificationError

    plan, sys_ = cached(forest, PlanCache())
    options = EngineOptions(verify_plan=True)
    assert execute(plan, sys_, options=options).values == run_ordinary(sys_)
    # a re-pointed level-0 read passes the layout rules; only the
    # system's maps -- the seam passes them for every family -- reject it
    for seed in range(40):
        bad = mutate_plan(plan, "level_retarget_read", seed=seed).plan
        if verify_plan(bad).ok:
            break
    else:
        pytest.fail("no re-pointed read passes the layout rules alone")
    codes = verify_plan(bad, system=sys_).codes()
    assert codes and set(codes) <= {"LVL003", "LVL004"}
    with pytest.raises(PlanVerificationError, match=codes[0]):
        execute(bad, sys_, options=options)
