"""Affine chain differential suite: the numpy layout kernel's run scan
(``AffineLevels``), the pointer-jumping rounds (``AffineRounds``, the
python backend's ``path="affine"``) and the sequential loop
``run_moebius_sequential`` agree within ``rtol = atol = 1e-9`` -- NaN
meets NaN, ``inf`` matches in sign -- on ``solve``, ``Session.solve``,
stacked ``Session.solve_batch`` and serve coalescing.

Draws include ``0.0``, ``-0.0``, ``+-inf``, NaN and magnitudes near
``1e+-200``, within the bounds where a reassociated composition can
agree with the loop at all:

* ``|a| <= 1`` and finite: products of ``a`` never overflow, and the
  loop's exact zero (``_zmul``) also lets a zero *value* absorb a
  non-finite coefficient, which no composition of maps can reproduce;
* ``b`` stays small (two huge ``b`` could cancel, and the loop rounds
  the sum in another order) but takes ``+-inf`` and NaN;
* initial values take every special and ``1e+-200`` magnitudes -- one
  per trace, so nothing cancels against them.

The one documented divergence: a product of ``a`` that underflows to
0 meets an infinite value as ``0 * inf``, so where the loop has
``+-inf`` a reassociated path may give NaN -- never a finite value.
It is allowed only for draws whose ``a`` can underflow.
"""

import asyncio
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import verify_plan
from repro.check.mutate import mutate_plan
from repro.core.moebius import AffineRecurrence, run_moebius_sequential
from repro.core.traces import predecessors, writer_map
from repro.engine import EngineOptions, Session, execute, solve, solve_batch
from repro.engine.plan import build_round_schedule, plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache, plan_nbytes
from repro.resilience import SolvePolicy
from repro.serve.coalescer import CoalesceLane

from ..check.test_schedule_verifier import CHAIN_MODES
from .test_chain_parity import SHAPES, _system, shape_maps

RTOL = ATOL = 1e-9
AFFINE = {"path": "affine"}
ROUNDS = EngineOptions(backend="python", backend_options=AFFINE)


def near(scale):
    """Magnitudes near ``scale``, either sign."""
    return st.builds(
        lambda mantissa, sign: sign * mantissa * scale,
        st.floats(0.5, 5.0),
        st.sampled_from([1.0, -1.0]),
    )


ZEROS = st.sampled_from([0.0, -0.0])
SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
COEFF_A = st.one_of(st.floats(-1.0, 1.0), ZEROS, near(1e-200))
COEFF_B = st.one_of(st.floats(-4.0, 4.0), SPECIALS, near(1e-200))
VALUE = st.one_of(st.floats(-4.0, 4.0), SPECIALS, near(1e200), near(1e-200))
#: ``|a| = 1`` keeps every tile's carry in play across a long chain
UNIT = st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0))


@st.composite
def problems(draw, max_n=48):
    """An affine recurrence over one of the chain-parity index shapes,
    plus 1-3 value rows."""
    kind = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, max_n))
    g, f, m = shape_maps(kind, n, draw)
    a = draw(st.lists(COEFF_A, min_size=n, max_size=n))
    b = draw(st.lists(COEFF_B, min_size=n, max_size=n))
    values = st.lists(VALUE, min_size=m, max_size=m)
    rows = draw(st.lists(values, min_size=1, max_size=3))
    return AffineRecurrence.build(rows[0], g, f, a, b), rows


def may_underflow(rec) -> bool:
    """Whether some product of ``a`` may underflow (``|a| <= 1``, so the
    product of every nonzero ``|a|`` bounds each partial product)."""
    logs = [math.log10(abs(x)) for x in rec.a if x != 0]
    return sum(logs) < -300


def assert_close(got, want, lenient=False):
    assert len(got) == len(want)
    for x, y in zip(map(float, got), map(float, want)):
        if math.isnan(y):
            assert math.isnan(x), (x, y)
        elif math.isinf(y):
            assert x == y or (lenient and math.isnan(x)), (x, y)
        else:
            assert math.isfinite(x) and abs(x - y) <= ATOL + RTOL * abs(y), (x, y)


def assert_same(got, want):
    """Bit-level agreement up to NaN payloads and zero signs."""
    assert len(got) == len(want)
    for x, y in zip(map(float, got), map(float, want)):
        assert x == y or (math.isnan(x) and math.isnan(y)), (x, y)


def loop(rec, row):
    return run_moebius_sequential(dataclasses.replace(rec, initial=list(row)))


@settings(max_examples=150, deadline=None)
@given(problems())
def test_solve_matches_loop(problem):
    rec, rows = problem
    lenient = may_underflow(rec)
    want = loop(rec, rows[0])
    scan = solve(rec, cache=PlanCache(), options=AFFINE)
    assert scan.strategy == scan.plan.strategy
    assert_close(scan.values, want, lenient)
    rounds = solve(rec, cache=PlanCache(), options=ROUNDS)
    assert rounds.strategy == "rounds"
    assert_close(rounds.values, want, lenient)
    assert_close(solve(rec, cache=PlanCache()).values, want, lenient)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_session_and_batch_match_loop(problem):
    rec, rows = problem
    lenient = may_underflow(rec)
    session = Session(rec, options=AFFINE)
    guarded = Session(rec)
    singles = []
    for row in rows:
        want = loop(rec, row)
        got = session.solve(row)
        assert got.strategy == session.plan.strategy
        assert_close(got.values, want, lenient)
        assert_close(guarded.solve(row).values, want, lenient)
        singles.append(got.values)
    # one stacked sweep: the single solves' arithmetic, row for row
    for stacked, single in zip(session.solve_batch(rows), singles):
        assert_same(stacked, single)
    for stacked, single in zip(guarded.solve_batch(rows), singles):
        assert_same(stacked, single)


async def _fan_out(lane, payloads):
    futures = [
        lane.submit(values=row, patch=None, request_id=str(i))
        for i, row in enumerate(payloads)
    ]
    return await asyncio.gather(*futures)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_serve_coalescing_matches_loop(problem):
    rec, rows = problem
    session = Session(rec)
    lane = CoalesceLane(
        session,
        options=session.options,
        base_values=list(rec.initial),
        window_s=0.001,
    )
    results = asyncio.run(_fan_out(lane, rows))
    for row, result in zip(rows, results):
        assert_close(result.values, loop(rec, row), may_underflow(rec))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([65, 400, 4097, 20_000]),
    st.lists(st.tuples(UNIT, st.floats(-4.0, 4.0)), min_size=1),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
)
def test_tiled_scan_matches_loop(n, coefficients, heads):
    """Chains longer than one tile -- one, two and three levels of tile
    carries -- reassociate only across tiles, single and stacked."""
    pairs = [coefficients[i % len(coefficients)] for i in range(n)]
    rec = AffineRecurrence.build(
        [0.5] * (n + 1),
        np.arange(1, n + 1),
        np.arange(n),
        [p[0] for p in pairs],
        [p[1] for p in pairs],
    )
    rows = [[head] + [0.5] * n for head in heads]
    session = Session(rec, options=AFFINE)
    for row, stacked in zip(rows, session.solve_batch(rows)):
        single = session.solve(row)
        assert single.strategy == "chains"
        assert_close(single.values, loop(rec, row))
        assert_same(stacked, single.values)


# ---------------------------------------------------------------------------
# plans and strategies
# ---------------------------------------------------------------------------


def affine(f, n, seed=0):
    rng = np.random.default_rng(seed)
    return AffineRecurrence.build(
        rng.uniform(-1.0, 1.0, n + 1).tolist(),
        np.arange(1, n + 1),
        f,
        rng.uniform(-1.0, 1.0, n).tolist(),
        rng.uniform(-1.0, 1.0, n).tolist(),
    )


def chain(n):
    return affine(np.arange(n), n)


def caterpillar(n):
    f = np.arange(n)
    f[n // 2 :] = np.random.default_rng(1).integers(0, n // 2, n - n // 2)
    return affine(f, n)


def random_maps(n):
    return affine(np.random.default_rng(2).integers(0, n + 1, n), n)


def strided(n):
    """Two interleaved chains: two stride-2 runs, one chain level."""
    f = np.arange(n) - 1
    f[0] = n
    return affine(f, n)


def from_identity(kind, n):
    """An ordinary test shape's maps (``g`` the identity) moved onto
    ``g = i + 1``: a read of iteration ``j``'s cell reads ``j + 1``, an
    initial read the never-written cell 0."""
    f = np.asarray(_system(kind, n).f)
    return affine(np.where(f >= n, 0, f + 1), n)


def strided4(n):
    """The paper's Fig 1: four interleaved stride-4 runs."""
    return from_identity("strided4", n)


def spine(n):
    """``X[2j+2]``, ``X[2j+1]`` read ``X[2j]``: a run, then its leaves."""
    return from_identity("spine", n)


def padded(n):
    """Runs of 5 .. 8 iterations: one padded scan block."""
    return from_identity("padded", n)


def zigzag(n):
    """Two interleaved chains whose strides alternate 1 and 3: their runs
    are pairs and they are deep, so they keep the round schedule."""
    idx = np.arange(n)
    f = np.where(idx % 2 == 1, idx - 1, idx - 3) + 1  # pred's cell
    f[[0, 2]] = 0  # the roots read a never-written cell
    return affine(f, n)


@pytest.mark.parametrize(
    "build, strategy",
    [
        (chain, "chains"),
        (caterpillar, "chains"),
        (random_maps, "levels"),
        (strided, "chains"),
        (strided4, "chains"),
        (spine, "chains"),
        (padded, "chains"),
        (zigzag, "rounds"),
    ],
)
def test_strategy_follows_the_layout(build, strategy):
    rec = build(4096)
    result = solve(rec, cache=PlanCache())
    assert result.plan.strategy == result.strategy == strategy
    assert Session(rec).solve().strategy == strategy
    assert_close(result.values, run_moebius_sequential(rec))
    if strategy == "levels":  # the loop's own formula, bit for bit
        assert result.values == run_moebius_sequential(rec)
    # the layout's counts are the round schedule's of the same maps
    plan = result.plan
    pred = predecessors(rec.f, writer_map(rec.g, rec.m))
    assert plan.rounds == len(build_round_schedule(pred))
    assert plan.init_ops == int((pred < 0).sum())
    if strategy != "rounds":
        depth = np.zeros(rec.n, dtype=np.int64)
        for i, p in enumerate(pred.tolist()):
            depth[i] = depth[p] + 1 if p >= 0 else 0
        assert plan.trace_bound == int(depth.max()) + 2
    # a stacked batch: the one-iteration levels of every row exact
    rng = np.random.default_rng(5)
    rows = [rng.uniform(-1.0, 1.0, rec.m).tolist() for _ in range(2)]
    for row, got in zip(rows, solve_batch(rec, rows, cache=PlanCache())):
        want = run_moebius_sequential(dataclasses.replace(rec, initial=row))
        assert_close(got, want)
        if strategy == "levels":
            assert got == want


def test_chain_plan_keeps_its_first_cell():
    """The 200k affine chain writes one cell range: after a solve and a
    stacked batch its plan is O(segments) bytes (the rounds plan took
    ~58 MB, a stored ``write`` 1.6 MB), and it ships as ``start``."""
    n = 200_000
    rec = chain(n)
    session = Session(rec)
    result = session.solve()
    assert_close(result.values, run_moebius_sequential(rec))
    rng = np.random.default_rng(6)
    rows = [rng.uniform(-1.0, 1.0, rec.m).tolist() for _ in range(2)]
    for row, got in zip(rows, session.solve_batch(rows)):
        assert_close(got, run_moebius_sequential(dataclasses.replace(rec, initial=row)))
    plan = session.plan
    assert plan.strategy == "chains" and not plan.has_pred
    assert plan.levels.start is not None and plan_nbytes(plan) <= 4096
    payload = json.loads(json.dumps(plan_to_dict(plan)))
    assert "write" not in payload["levels"]
    assert execute(plan_from_dict(payload), rec).values == result.values


def test_chain_plan_round_trips_and_verifies():
    rec = caterpillar(2048)
    result = solve(rec, cache=PlanCache())
    plan = result.plan
    assert verify_plan(plan).ok
    shipped = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
    assert shipped.strategy == "chains" and not shipped.has_pred
    assert verify_plan(shipped).ok
    assert execute(shipped, rec).values == result.values


@pytest.mark.parametrize("kind", sorted(CHAIN_MODES))
def test_chain_mutations_are_rejected(kind):
    rec = caterpillar(2048)
    plan = solve(rec, cache=PlanCache()).plan
    assert plan.levels.levels >= 2
    for seed in range(5):
        mutation = mutate_plan(plan, CHAIN_MODES[kind], seed=seed)
        assert mutation is not None
        assert not verify_plan(mutation.plan, system=rec).ok, mutation.description


def test_round_budget_runs_rounds():
    rec = chain(1024)
    result = solve(
        rec,
        cache=PlanCache(),
        collect_stats=True,
        options=EngineOptions(policy=SolvePolicy(max_rounds=64)),
    )
    assert result.plan.strategy == "chains"
    assert result.strategy == "rounds"
    assert result.stats.rounds == math.ceil(math.log2(1024))
    assert_close(result.values, run_moebius_sequential(rec))


def test_session_classifies_coefficients_once(monkeypatch):
    """A Session classifies ``a, b, c, d`` at construction -- scanning
    ``a`` and ``b``; the constant ``c`` and ``d`` that
    ``AffineRecurrence.build`` wrote need no scan -- and a request
    classifies only its own values (one column per row)."""
    from repro.core import moebius
    from repro.engine import exec_moebius

    seen = []
    classify = moebius._float_column

    def counting(xs):
        seen.append(len(xs))
        return classify(xs)

    for module in (moebius, exec_moebius):
        monkeypatch.setattr(module, "_float_column", counting)
    n = 64
    rec = chain(n)
    session = Session(rec)
    assert seen == [n] * 2
    del seen[:]
    row = list(rec.initial)
    session.solve(row)
    session.solve(row)
    assert seen == [n + 1] * 2
    del seen[:]
    session.solve_batch([row, row, row])
    assert seen == [n + 1] * 3


# ---------------------------------------------------------------------------
# an underflowed product is not a structural zero
# ---------------------------------------------------------------------------


def underflow_probe(x0, n=6):
    """``X[i+1] = 1e-200 * X[i]``: ``a * a`` underflows to 0."""
    return AffineRecurrence.build(
        [x0] + [0.0] * (n - 1),
        np.arange(1, n),
        np.arange(n - 1),
        [1e-200] * (n - 1),
        [0.0] * (n - 1),
    )


KERNELS = {
    "chains": EngineOptions(backend_options=AFFINE),
    "rounds": ROUNDS,
    "budgeted rounds": EngineOptions(
        policy=SolvePolicy(max_rounds=64), backend_options=AFFINE
    ),
}


@pytest.mark.parametrize("n", [6, 300])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_underflow_never_absorbs_an_infinity(kernel, n):
    rec = underflow_probe(math.inf, n)
    result = solve(rec, cache=PlanCache(), options=KERNELS[kernel])
    assert result.strategy == kernel.split()[-1]
    assert not any(math.isfinite(x) for x in result.values)
    assert_close(result.values, run_moebius_sequential(rec), lenient=True)


@pytest.mark.parametrize("n", [6, 300])
def test_underflow_probe_auto_returns_the_loop(n):
    rec = underflow_probe(math.inf, n)
    assert solve(rec, cache=PlanCache()).values == [math.inf] * n
    assert Session(rec).solve().values == [math.inf] * n


@pytest.mark.parametrize("n", [6, 300])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_underflow_finite_variant(kernel, n):
    rec = underflow_probe(1e300, n)
    result = solve(rec, cache=PlanCache(), options=KERNELS[kernel])
    assert_close(result.values, run_moebius_sequential(rec))


# ---------------------------------------------------------------------------
# signed zeros and structural zeros on every Moebius path
# ---------------------------------------------------------------------------

#: ``(initial, a, b, c, d)`` of one-step rational recurrences whose
#: result the loop's exact-zero products decide: a signed zero
#: (``-1 * 0.0 + -0.0``) and ``0 * inf`` absorbed by a structural zero.
ZERO_CASES = {
    "signed_zero": ([0.0, 1.0], [-1.0], [-0.0], [0.5], [2.0]),
    "zero_times_inf": ([math.inf, 1.0], [0.0], [-1.0], [1.0], [2.0]),
}


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("path", ["auto", "rational", "object"])
@pytest.mark.parametrize("case", sorted(ZERO_CASES))
def test_zero_products_match_the_loop_on_every_path(case, path, backend):
    from repro.core.moebius import RationalRecurrence

    initial, a, b, c, d = ZERO_CASES[case]
    rec = RationalRecurrence.build(initial, [1], [0], a, b, c, d)
    want = run_moebius_sequential(rec)
    assert str(want[1]) == "-0.0"
    options = EngineOptions(backend=backend, backend_options={"path": path})
    got = solve(rec, cache=PlanCache(), options=options).values
    assert [str(float(v)) for v in got] == [str(v) for v in want]
