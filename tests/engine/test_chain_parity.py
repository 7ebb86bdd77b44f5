"""Chain-scan differential suite: on every path that can run the chain
strategy -- ``solve``, ``Session.solve``, ``solve_batch`` and serve
coalescing -- results are the left fold of ``op.vector_fn`` in the
sequential loop's order, bit for bit, for every typed ufunc operator.

For ``ADD``, ``MUL``, ``FLOAT_ADD`` and ``FLOAT_MUL`` the ufunc is the
loop's own arithmetic, so chain results are bit-identical to
``run_ordinary``, floats included.  ``MIN`` / ``MAX`` differ from the
loop's ``x if x <= y else y`` on NaN (``np.minimum`` propagates it) and
on ties between ``0.0`` and ``-0.0``; the suite draws both and checks
them against a loop that folds with the ufunc instead.  The rounds path
is compared only where its operator is exactly associative (the int
operators).
"""

import asyncio
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ADD, FLOAT_ADD, FLOAT_MUL, MAX, MIN, MUL, OrdinaryIRSystem
from repro.core.sequential import run_ordinary
from repro.engine import EngineOptions, Session, execute, solve, solve_batch
from repro.engine.plan import plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache
from repro.serve.coalescer import CoalesceLane

OPERATORS = (ADD, MUL, FLOAT_ADD, FLOAT_MUL, MIN, MAX)
SHAPES = ("forest", "comb", "caterpillar", "chain", "disjoint")


def shape_maps(kind, n, draw):
    """``(g, f, m)`` of one index shape; ``g`` is the identity, so the
    ``f`` map alone draws the predecessor forest."""
    idx = np.arange(n)
    f = idx - 1
    f[0] = n  # the first head reads a never-written cell
    if kind == "forest":
        f = np.array([draw(st.integers(0, n)) for _ in range(n)])
    elif kind == "comb":
        # a spine, then teeth of a fixed length hung off spine nodes
        spine = draw(st.integers(1, n))
        tooth = draw(st.integers(1, 4))
        for start in range(spine, n, tooth):
            f[start] = draw(st.integers(0, spine - 1))
    elif kind == "caterpillar":
        # a spine, then single legs each reading one spine node
        spine = draw(st.integers(1, n))
        for leg in range(spine, n):
            f[leg] = draw(st.integers(0, spine - 1))
    elif kind == "disjoint":
        count = draw(st.integers(1, max(1, n // 2)))
        for head in range(0, n, max(1, n // count)):
            f[head] = n + draw(st.integers(0, 2))
    return idx, f, n + 3


def operand(op):
    if op is MUL:
        return st.integers(-2, 2)  # |products| stay inside int64
    if op is ADD:
        return st.integers(-(10**6), 10**6)
    specials = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
    return st.one_of(st.floats(-4.0, 4.0), specials)


@st.composite
def problems(draw, max_n=48):
    kind = draw(st.sampled_from(SHAPES))
    op = draw(st.sampled_from(OPERATORS))
    n = draw(st.integers(1, max_n))
    g, f, m = shape_maps(kind, n, draw)
    values = st.lists(operand(op), min_size=m, max_size=m)
    rows = draw(st.lists(values, min_size=1, max_size=3))
    return OrdinaryIRSystem.build(rows[0], g, f, op), rows


def oracle(system, row):
    """The sequential loop; for MIN / MAX, folding with the ufunc (the
    documented chain contract) instead of the loop's comparison."""
    op = system.op
    if op in (MIN, MAX):
        fold = op.vector_fn
        op = dataclasses.replace(op, fn=lambda x, y: float(fold(x, y)))
    return run_ordinary(dataclasses.replace(system, initial=list(row), op=op))


def assert_bit_identical(got, want):
    """Equal values with equal signs (``-0.0`` is not ``0.0``); a NaN
    must meet a NaN, whatever its sign bit."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if isinstance(y, float):
            assert isinstance(x, float)
            if y != y:
                assert x != x
                continue
            assert math.copysign(1, x) == math.copysign(1, y)
        assert x == y


def exact(system, result):
    """Chain results and exactly associative operators must match the
    loop bit for bit."""
    return result.strategy == "chains" or system.op.dtype == "int64"


@settings(max_examples=150, deadline=None)
@given(problems())
def test_solve_matches_loop(problem):
    system, rows = problem
    result = solve(system, cache=PlanCache())
    assert result.strategy == result.plan.strategy
    if exact(system, result):
        assert_bit_identical(result.values, oracle(system, rows[0]))


@settings(max_examples=100, deadline=None)
@given(problems())
def test_session_and_batch_match_loop(problem):
    system, rows = problem
    session = Session(system)
    chains = session.plan.strategy == "chains"
    for row in rows:
        got = session.solve(row)
        if chains or system.op.dtype == "int64":
            assert_bit_identical(got.values, oracle(system, row))
    batch = solve_batch(system, rows, cache=PlanCache())
    stacked = session.solve_batch(rows)
    for row, a, b in zip(rows, batch, stacked):
        if chains or system.op.dtype == "int64":
            assert_bit_identical(a, oracle(system, row))
        assert_bit_identical(b, a)


async def _fan_out(lane, payloads):
    futures = [
        lane.submit(values=row, patch=None, request_id=str(i))
        for i, row in enumerate(payloads)
    ]
    return await asyncio.gather(*futures)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_serve_coalescing_matches_loop(problem):
    system, rows = problem
    session = Session(system)
    lane = CoalesceLane(
        session,
        options=session.options,
        base_values=list(system.initial),
        window_s=0.001,
    )
    results = asyncio.run(_fan_out(lane, rows))
    for row, result in zip(rows, results):
        if session.plan.strategy == "chains" or system.op.dtype == "int64":
            assert_bit_identical(result.values, oracle(system, row))


def _system(kind, n, op=FLOAT_MUL, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    f = idx - 1
    f[0] = n
    if kind == "forest":
        f = rng.integers(0, n + 1, n)
    elif kind == "caterpillar":
        f[n // 2 :] = rng.integers(0, n // 2, n - n // 2)
    return OrdinaryIRSystem.build(
        (1.0 + rng.random(n + 1) / 10).tolist(), idx, f, op
    )


@pytest.mark.parametrize(
    "kind, strategy",
    [("chain", "chains"), ("caterpillar", "chains"), ("forest", "rounds")],
)
def test_planner_picks_both_strategies(kind, strategy):
    system = _system(kind, 4096)
    result = solve(system, cache=PlanCache())
    assert result.plan.strategy == result.strategy == strategy
    if strategy == "chains":
        plan = result.plan
        assert plan.chains.levels < plan.rounds  # fewer levels than rounds
        assert not plan.has_steps  # counting rounds never builds them
        assert_bit_identical(result.values, run_ordinary(system))
        shipped = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert shipped.strategy == "chains" and not shipped.has_steps
        assert execute(shipped, system).values == result.values


def test_chain_plan_memory_is_linear():
    from repro.engine.planner import plan_nbytes

    small = solve(_system("chain", 1 << 12), cache=PlanCache()).plan
    large = solve(_system("chain", 1 << 15), cache=PlanCache()).plan
    assert not large.has_steps  # the round schedule stays lazy
    assert plan_nbytes(large) / plan_nbytes(small) == pytest.approx(8, rel=0.01)


@pytest.mark.parametrize("policy", [None, {"timeout_s": 60.0}])
def test_chain_spans_stats_and_counters_agree(policy):
    """One ``solver.round`` span and one ``solver.rounds`` count per
    chain level, matching ``SolveStats`` -- the same agreement the
    rounds path keeps per round."""
    system = _system("caterpillar", 4096)
    with obs.observed() as (tracer, registry):
        result = solve(
            system,
            cache=PlanCache(),
            collect_stats=True,
            options=EngineOptions(policy=policy),
        )
    stats = result.stats
    assert result.strategy == "chains"
    levels = tracer.find("solver.round")
    assert len(levels) == stats.rounds == result.plan.chains.levels == 2
    assert [s.attributes["active"] for s in levels] == stats.active_per_round
    assert sum(stats.active_per_round) == system.n  # op work 1 per element
    assert registry.value("solver.rounds", engine="numpy") == stats.rounds
    hist = registry.histogram("solver.active_cells", engine="numpy")
    assert hist.sum == sum(stats.active_per_round)
    (root,) = tracer.find("solver.ordinary")
    assert root.attributes["strategy"] == "chains"
    assert root.attributes["rounds"] == stats.rounds


def test_round_budget_runs_rounds():
    """A ``max_rounds`` policy always runs pointer-jumping rounds."""
    system = _system("chain", 1024)
    result = solve(
        system,
        cache=PlanCache(),
        collect_stats=True,
        options=EngineOptions(policy={"max_rounds": 64}),
    )
    assert result.plan.strategy == "chains"
    assert result.strategy == "rounds"
    assert result.stats.rounds == math.ceil(math.log2(1024))


@pytest.mark.parametrize("op", [MIN, MAX], ids=lambda op: op.name)
def test_min_max_follow_the_ufunc_on_nan_and_signed_zeros(op):
    """The documented MIN / MAX difference: the chain path folds with
    ``np.minimum`` / ``np.maximum``, which propagate NaN, where the
    loop's comparison lets the next value replace a NaN."""
    row = [1.0, math.nan, 2.0, 0.0, -0.0, 3.0, 0.0]
    system = OrdinaryIRSystem.build(row, np.arange(6), np.r_[6, np.arange(5)], op)
    result = solve(system, cache=PlanCache())
    assert result.strategy == "chains"
    assert_bit_identical(result.values, oracle(system, row))
    loop = run_ordinary(system)
    assert math.isnan(result.values[1]) and math.isnan(result.values[5])
    assert not math.isnan(loop[5])
