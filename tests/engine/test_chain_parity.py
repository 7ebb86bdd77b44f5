"""Chain-scan differential suite: on every path that can run the chain
strategy -- ``solve``, ``Session.solve``, ``solve_batch`` and serve
coalescing -- results are the left fold of ``op.vector_fn`` in the
sequential loop's order, bit for bit, for every typed ufunc operator.

For ``ADD``, ``MUL``, ``FLOAT_ADD`` and ``FLOAT_MUL`` the ufunc is the
loop's own arithmetic, so chain results -- and the level sweeps' on
the shapes that plan dependence levels -- are bit-identical to
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
from repro.check import verify_plan
from repro.check.mutate import LEVEL_MUTATION_KINDS, mutation_campaign
from repro.core import (
    ADD,
    CONCAT,
    FLOAT_ADD,
    FLOAT_MUL,
    MAX,
    MIN,
    MUL,
    OrdinaryIRSystem,
)
from repro.core.ordinary import _sequential_baseline
from repro.core.sequential import run_ordinary
from repro.core.traces import predecessors, writer_map
from repro.engine import EngineOptions, Session, execute, solve, solve_batch
from repro.engine.plan import build_round_schedule, plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache
from repro.serve.coalescer import CoalesceLane

OPERATORS = (ADD, MUL, FLOAT_ADD, FLOAT_MUL, MIN, MAX)
#: The last five cut into arithmetic runs of other strides than 1.
SHAPES = ("forest", "comb", "caterpillar", "chain", "disjoint",
          "strided", "spine", "stride_changes", "rooted", "spread")


def shape_maps(kind, n, draw):
    """``(g, f, m)`` of one index shape; ``g`` is the identity (but for
    ``spread``), so the ``f`` map alone draws the predecessor forest.

    ``strided``: ``k <= 8`` interleaved stride-``k`` chains (the paper's
    Fig 1 for ``k = 4``); ``spine``: ``X[2j+2]`` and ``X[2j+1]`` both
    read ``X[2j]``; ``stride_changes``: strides that change every few
    iterations; ``rooted``: stride-``k`` chains with roots at
    arbitrary indices; ``spread``: any of those over ``m > 2n`` cells.
    """
    idx = np.arange(n)
    f = idx - 1
    f[0] = n  # the first head reads a never-written cell
    if kind == "spread":
        kind = draw(st.sampled_from(SHAPES[-5:-1]))
        g, f, m = shape_maps(kind, n, draw)
        cells = np.array(draw(st.permutations(range(2 * m))))  # m > 2n cells
        return cells[g], cells[f], 2 * m
    if kind in ("strided", "rooted"):
        k = draw(st.integers(1, 8))
        f = idx - k
        if kind == "rooted":
            f[draw(st.lists(st.integers(0, n - 1), max_size=4))] = -1
        f[f < 0] = n
    elif kind == "spine":
        f = np.where(idx % 2 == 0, idx - 2, idx - 1)
        f[0] = n
    elif kind == "stride_changes":
        strides = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        runs = draw(st.integers(1, 6))
        f = idx - np.repeat(strides[: -(-n // runs)], runs)[:n]
        f[f < 0] = n + draw(st.integers(0, 2))
    elif kind == "forest":
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


#: The strategies that fold in the loop's own order.
LOOP_ORDER = ("chains", "levels")


def exact(system, result):
    """Chain and level results and exactly associative operators must
    match the loop bit for bit."""
    return result.strategy in LOOP_ORDER or system.op.dtype == "int64"


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
    chains = session.plan.strategy in LOOP_ORDER
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
        if session.plan.strategy in LOOP_ORDER or system.op.dtype == "int64":
            assert_bit_identical(result.values, oracle(system, row))


def _system(kind, n, op=FLOAT_MUL, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    f = idx - 1
    f[0] = n
    if kind == "forest":
        f = rng.integers(0, n + 1, n)
    elif kind == "strided":  # two interleaved chains: two stride-2 runs
        f = idx - 2
        f[:2] = n
    elif kind == "strided4":  # the paper's Fig 1: four stride-4 runs
        f = idx - 4
        f[:4] = n
    elif kind == "spine":  # X[2j+2], X[2j+1] read X[2j]: a run, then leaves
        f = np.where(idx % 2 == 0, idx - 2, idx - 1)
        f[0] = n
    elif kind == "padded":  # runs of 5 .. 8 iterations: one padded block
        lengths = np.resize([5, 6, 7, 8], n // 4)
        starts = np.cumsum(lengths) - lengths
        f[starts[starts < n]] = n
    elif kind == "zigzag":  # strides alternate 1, 3: deep, runs are pairs
        f = np.where(idx % 2 == 1, idx - 1, idx - 3)
        f[[0, 2]] = n
    elif kind == "caterpillar":
        f[n // 2 :] = rng.integers(0, n // 2, n - n // 2)
    return OrdinaryIRSystem.build(
        (1.0 + rng.random(n + 1) / 10).tolist(), idx, f, op
    )


@pytest.mark.parametrize(
    "kind, strategy",
    [
        ("chain", "chains"),
        ("caterpillar", "chains"),
        ("forest", "levels"),
        ("strided", "chains"),
        ("strided4", "chains"),
        ("spine", "chains"),
        ("padded", "chains"),
        ("zigzag", "rounds"),
    ],
)
def test_planner_picks_both_strategies(kind, strategy):
    system = _system(kind, 4096)
    result = solve(system, cache=PlanCache())
    assert result.plan.strategy == result.strategy == strategy
    # the layout's counts are the round schedule's of the same maps
    plan = result.plan
    pred = predecessors(system.f, writer_map(system.g, system.m))
    assert plan.rounds == len(build_round_schedule(pred))
    assert plan.init_ops == int((pred < 0).sum())
    if strategy != "rounds":  # the deepest trace, exactly
        depth = np.zeros(system.n, dtype=np.int64)
        for i, p in enumerate(pred.tolist()):
            depth[i] = depth[p] + 1 if p >= 0 else 0
        assert plan.trace_bound == int(depth.max()) + 2
    # loop-exact layouts: int ADD, FLOAT_ADD, MIN and MAX, with
    # f_initial and as a stacked batch
    rng = np.random.default_rng(1)
    for op in (ADD, FLOAT_ADD, MIN, MAX):
        draw = (lambda: rng.integers(-99, 99, system.m).tolist()) if op is ADD else (
            lambda: rng.uniform(-2.0, 2.0, system.m).tolist()
        )
        sys_op = dataclasses.replace(system, op=op, initial=draw())
        f_row, rows = draw(), [draw(), draw()]
        got = solve(sys_op, cache=PlanCache(), f_initial=f_row)
        if got.strategy in LOOP_ORDER:
            assert_bit_identical(got.values, _sequential_baseline(sys_op, f_row))
            batch = solve_batch(sys_op, rows, cache=PlanCache())
            for row, out in zip(rows, batch):
                assert_bit_identical(out, run_ordinary(dataclasses.replace(sys_op, initial=row)))
    if strategy == "levels":  # loop-exact, and no pred or schedule kept
        assert_bit_identical(result.values, run_ordinary(system))
        assert not result.plan.has_pred
    if strategy == "chains":
        assert plan.levels.levels < plan.rounds  # fewer levels than rounds
        assert not plan.has_pred  # counting rounds never builds them
        assert_bit_identical(result.values, run_ordinary(system))
        shipped = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert shipped.strategy == "chains" and not shipped.has_pred
        assert execute(shipped, system).values == result.values


def test_chain_plan_memory_is_linear():
    """A contiguous chain's cells are one range, kept as its first cell:
    O(segments) bytes at any n.  Two interleaved stride-2 chains write
    no one range, so their plan stays linear in n."""
    from repro.engine.planner import plan_nbytes

    for kind in ("chain", "strided"):
        small = solve(_system(kind, 1 << 12), cache=PlanCache()).plan
        large = solve(_system(kind, 1 << 15), cache=PlanCache()).plan
        assert not large.has_pred  # the round schedule stays lazy
        if kind == "chain":
            assert large.levels.start == small.levels.start == 0
            assert plan_nbytes(large) == plan_nbytes(small) <= 64
        else:
            assert large.levels.start is None
            ratio = plan_nbytes(large) / plan_nbytes(small)
            assert ratio == pytest.approx(8, rel=0.01)


@pytest.mark.parametrize("at_head", [False, True])
def test_nested_segments_get_their_parents_level(at_head):
    """Segments seeded inside (or at the head of) a segment of the level
    before: a spine, a branch off the spine, a branch off the branch and
    one off that -- four levels, each segment's parent found among the
    segment heads."""
    n, starts = 4000, [0, 500, 1500, 2800]
    idx = np.arange(n)
    f = idx - 1
    f[0] = n
    for parent, head in zip(starts, starts[1:]):
        f[head] = parent if at_head else parent + 100
    system = OrdinaryIRSystem.build(list(range(n + 1)), idx, f, ADD)
    plan = solve(system, cache=PlanCache()).plan
    assert plan.strategy == "chains" and plan.levels.levels == 4
    assert plan.levels.level_ptr.tolist() == [0, 1, 2, 3, 4]
    depth = [0] * n
    for i, p in enumerate(predecessors(system.f, writer_map(system.g, system.m)).tolist()):
        depth[i] = depth[p] + 1 if p >= 0 else 0
    assert plan.trace_bound == max(depth) + 2  # from the runs' head depths
    assert verify_plan(plan, system=system).ok
    assert solve(system, plan=plan, cache=PlanCache()).values == run_ordinary(system)


def test_copying_a_chain_plan_builds_no_steps():
    plan = solve(_system("chain", 1 << 12), cache=PlanCache()).plan
    assert plan.strategy == "chains" and not plan.has_pred
    copy = dataclasses.replace(plan)
    as_dict = dataclasses.asdict(plan)
    assert not plan.has_pred and not copy.has_pred
    assert as_dict["_steps"] is None
    # the copy still builds the same schedule when a consumer asks
    system = _system("chain", 1 << 12)
    steps = copy.round_steps(system.g, system.f)
    assert [a.tolist() for a, _ in steps] == [
        a.tolist() for a, _ in plan.round_steps(system.g, system.f)
    ]
    # a built schedule travels with the copy, as does a rounds plan's
    # (the solve built it from the plan's pred)
    assert dataclasses.replace(plan).round_steps() is plan.round_steps()
    rounds = solve(_system("zigzag", 1 << 10), cache=PlanCache()).plan
    assert rounds.strategy == "rounds"
    assert dataclasses.replace(rounds).round_steps() is rounds.round_steps()


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
    assert len(levels) == stats.rounds == result.plan.levels.levels == 2
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


@st.composite
def run_shapes(draw, max_n=48):
    """``(g, f, m)`` of one of the shapes that cut into runs of other
    strides than 1."""
    kind = draw(st.sampled_from(SHAPES[-5:]))
    return shape_maps(kind, draw(st.integers(1, max_n)), draw)


@settings(max_examples=60, deadline=None)
@given(run_shapes())
def test_non_ufunc_operator_runs_the_rebuilt_rounds(maps):
    """``CONCAT`` is no ufunc: a chain plan's solve rebuilds ``pred`` and
    the round schedule from ``(g, f)`` and still folds the loop's
    traces."""
    g, f, m = maps
    system = OrdinaryIRSystem.build([(c,) for c in range(m)], g, f, CONCAT)
    result = solve(system, cache=PlanCache())
    assert result.values == run_ordinary(system)
    assert result.strategy == "rounds"
    if result.plan.strategy == "chains":
        assert result.plan.has_pred  # built with the schedule


@settings(max_examples=60, deadline=None)
@given(run_shapes())
def test_run_mutants_are_rejected_by_a_chain_rule(maps):
    g, f, m = maps
    system = OrdinaryIRSystem.build([0] * m, g, f, ADD)
    plan = solve(system, cache=PlanCache()).plan
    if plan.strategy != "chains":
        return
    assert verify_plan(plan, system=system).ok
    for mutant in mutation_campaign(plan, kinds=LEVEL_MUTATION_KINDS, seeds=range(3)):
        report = verify_plan(mutant.plan, system=system)
        assert not report.ok, mutant.description
        assert report.errors[0].code.startswith("LVL"), mutant.description
    assert not plan.has_pred  # mutants are copies


@pytest.mark.parametrize(
    "shape, runs, stride",
    [("strided2", 2, 2), ("strided4", 4, 4), ("spine", None, None)],
)
def test_strided_shapes_plan_runs(shape, runs, stride):
    n = 4096
    idx = np.arange(n)
    if shape == "spine":
        f = np.where(idx % 2 == 0, idx - 2, idx - 1)
    else:
        f = idx - int(shape[-1])
    f[f < 0] = n
    system = OrdinaryIRSystem.build(list(range(n + 1)), idx, f, ADD)
    result = solve(system, cache=PlanCache())
    plan = result.plan
    assert result.strategy == plan.strategy == "chains"
    assert result.values == run_ordinary(system)
    assert not plan.has_pred
    layout = plan.levels
    if runs is not None:  # k interleaved runs of stride k, one level
        assert layout.segments == runs and layout.levels == 1
        for lo, hi in zip(layout.offsets[:-1], layout.offsets[1:]):
            assert (np.diff(layout.write[lo:hi]) == stride).all()
    else:  # {0, 1}, the stride-2 spine, then one run per leaf
        assert layout.levels == 3
        assert layout.segments == n // 2 + 1
    assert verify_plan(plan, system=system).ok


def _reachable_nbytes(obj, seen=None) -> int:
    """Bytes of every array reachable from ``obj`` through dataclass
    fields, dicts, lists and tuples (each array counted once)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif dataclasses.is_dataclass(obj):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return 0
    return sum(_reachable_nbytes(item, seen) for item in items)


def test_a_stride_one_chain_plan_holds_only_its_first_cell():
    """The 1M chain writes cells ``1 .. n``, one range: its plan keeps
    its run and its first cell -- no write cells, no ``g`` / ``f``, no
    ``pred`` -- before and after a solve and a stacked batch, and
    ``plan_nbytes`` counts exactly what is reachable."""
    from repro.engine.planner import plan_nbytes

    n = 1_000_000
    system = OrdinaryIRSystem.build(
        np.zeros(n + 1, dtype=np.int64), np.arange(1, n + 1), np.arange(n), ADD
    )
    session = Session(system)
    plan = session.plan
    assert plan.levels.start == 1 and plan.levels.offsets.tolist() == [0, n]
    budget = 4096  # O(segments): one run
    before = _reachable_nbytes(plan)
    assert before == plan_nbytes(plan) <= budget
    rows = [list(range(n + 1)), list(range(n, -1, -1))]
    want = [run_ordinary(dataclasses.replace(system, initial=row)) for row in rows]
    assert session.solve(rows[0]).values == want[0]
    assert session.solve_batch(rows) == want
    after = _reachable_nbytes(plan)
    assert after == plan_nbytes(plan) <= budget


def test_a_one_range_plan_on_every_path():
    """A contiguous chain's plan ships as its first cell and solves bit
    for bit as the loop on numpy, the python backend (rounds rebuilt from
    the system's maps), ``solve_batch`` and after a JSON round trip."""
    n = 100_000
    system = OrdinaryIRSystem.build(
        list(range(n + 1)), np.arange(1, n + 1), np.arange(n), ADD
    )
    want = run_ordinary(system)
    plan = solve(system, cache=PlanCache()).plan
    payload = json.loads(json.dumps(plan_to_dict(plan)))
    assert payload["levels"]["start"] == 1 and "write" not in payload["levels"]
    shipped = plan_from_dict(payload)
    assert shipped.levels.start == 1
    assert np.array_equal(shipped.levels.write, plan.levels.write)
    python = EngineOptions(backend="python")
    for held in (plan, shipped):
        assert execute(held, system).values == want
        assert execute(held, system, options=python).values == want
        other = list(range(n, -1, -1))
        got = solve_batch(system, [system.initial, other], plan=held)
        assert got == [want, run_ordinary(dataclasses.replace(system, initial=other))]
    for version in (6, 8):  # another schema is refused, not guessed
        with pytest.raises(ValueError, match="schema_version"):
            plan_from_dict({**payload, "schema_version": version})
    both = {**payload, "levels": {**payload["levels"], "write": list(range(1, n + 1))}}
    with pytest.raises(ValueError, match="either write or start"):
        plan_from_dict(both)


@pytest.mark.xfail(
    strict=True,
    reason="np.minimum keeps the second operand on a +-0.0 tie where the "
    "loop's `x if x <= y else y` keeps the first: the MIN/MAX contract "
    "(NaN and signed zeros) is undecided",
)
@pytest.mark.parametrize(
    "initial",
    [[1.0, -0.0, 0.0, 2.0, 0.5, 3.0], [1.0, 0.0, -0.0, 2.0, -0.0, 0.0]],
    ids=["neg-first", "pos-first"],
)
def test_min_signed_zero_ties_match_the_loop(initial):
    system = OrdinaryIRSystem.build(initial, np.arange(1, 6), np.arange(5), MIN)
    want = [v.hex() for v in run_ordinary(system)]
    python = solve(system, cache=PlanCache(), options=EngineOptions(backend="python"))
    assert [v.hex() for v in python.values] == want
    assert [v.hex() for v in solve(system, cache=PlanCache()).values] == want


def test_the_zigzag_stops_jumping_early_and_gets_no_runs():
    """The ~1M zigzag's runs are pairs, about 330k of them: their levels
    reach what any forest of its size allows long before the pointer
    jumping over runs would finish, and the verdict is the same."""
    from repro.engine.plan import build_chain_layout

    from .test_level_parity import zigzag_maps

    g, f, m = zigzag_maps(660_000)
    pred = predecessors(f, writer_map(g, m))
    assert build_chain_layout(g, f, pred) is None
