"""Rounds plans store ``pred`` alone; the round schedule follows from it.

:func:`~repro.engine.plan.build_round_schedule` is the one builder of
the pointer-jumping rounds, reached only through
:meth:`~repro.engine.plan.OrdinaryPlan.round_steps`.  No plan stores
or ships a schedule, so the checker no longer replays one: the
invariants it proved of every stored schedule are a property of the
builder instead, checked here over random forests, the zigzag deeper
than 62 and the paper's Fig 1 interleaved chains.

A rounds plan round-trips through JSON (schema v6: ``pred``, no
``steps``) and gives the same values and round counts on every rounds
consumer; the checker proves it by ``pred`` -- SCH006 against the
system, SCH005 (``pred[i]`` in ``[-1, i)``) without it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import mutate_plan, verify_plan
from repro.core import FLOAT_ADD, OrdinaryIRSystem
from repro.core.moebius import AffineRecurrence, RationalRecurrence
from repro.core.traces import predecessors, writer_map
from repro.engine import EngineOptions, Session, execute, solve
from repro.engine.plan import build_round_schedule, plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache, plan_nbytes
from repro.resilience import SolvePolicy

from .test_level_parity import zigzag_maps


def assert_schedule_invariants(pred):
    """The rules a stored schedule once had to pass, as facts of the
    builder: strictly increasing active ids per round (no write-write
    race), each source the current predecessor, no finished chain
    re-activated, and every chain complete after the last round."""
    steps = build_round_schedule(pred)
    ptr = pred.copy()
    for active, src in steps:
        assert active.size and bool((np.diff(active) > 0).all())
        assert np.array_equal(src, ptr[active])  # the current predecessor
        assert bool((ptr[active] >= 0).all())  # none already finished
        ptr[active] = ptr[src]
    assert bool((ptr == -1).all())  # every chain completes
    return steps


@st.composite
def forests(draw, max_n=200):
    """A random predecessor forest: ``pred[i]`` in ``[-1, i)``."""
    n = draw(st.integers(0, max_n))
    picks = draw(st.lists(st.integers(0, 2**31), min_size=n, max_size=n))
    return np.array([x % (i + 1) - 1 for i, x in enumerate(picks)], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(forests())
def test_the_builder_keeps_the_schedule_invariants(pred):
    steps = assert_schedule_invariants(pred)
    depth = np.zeros(pred.shape[0], dtype=np.int64)
    for i, p in enumerate(pred.tolist()):
        depth[i] = depth[p] + 1 if p >= 0 else 0
    deepest = int(depth.max()) if depth.size else 0
    assert len(steps) == deepest.bit_length()  # ceil(log2(depth + 1)) rounds


@pytest.mark.parametrize(
    "maps",
    [
        zigzag_maps(63),
        zigzag_maps(700),
        # the paper's Fig 1: four interleaved stride-4 chains
        (np.arange(64), np.where(np.arange(64) < 4, 64, np.arange(64) - 4), 65),
    ],
    ids=["zigzag-63", "zigzag-700", "fig1-interleaved"],
)
def test_the_builder_keeps_the_invariants_on_deep_and_strided_forests(maps):
    g, f, m = maps
    assert_schedule_invariants(predecessors(f, writer_map(g, m)))


@pytest.mark.parametrize(
    "pred",
    [
        [1, 0, -1],  # cyclic: pointer jumping would never end
        [-1, 5, 0],  # past n
        [-1, 1, 0],  # reads itself
        [-1, -2, 0],  # below -1: not a chain head
    ],
)
def test_a_pred_out_of_loop_order_is_refused(pred):
    with pytest.raises(ValueError, match=r"\[-1, i\)"):
        build_round_schedule(np.array(pred, dtype=np.int64))


# ---------------------------------------------------------------------------
# rounds plans: pred alone, the schedule cached in memory
# ---------------------------------------------------------------------------


def zigzag(depth=400, op=FLOAT_ADD):
    g, f, m = zigzag_maps(depth)
    rng = np.random.default_rng(3)
    return OrdinaryIRSystem.build(rng.uniform(-2.0, 2.0, m).tolist(), g, f, op)


def moebius_zigzag(depth=400, rational=False):
    g, f, m = zigzag_maps(depth)
    n = g.shape[0]
    rng = np.random.default_rng(4)
    initial = rng.uniform(0.5, 1.5, m).tolist()
    a, b = rng.uniform(0.5, 1.0, n).tolist(), rng.uniform(-0.5, 0.5, n).tolist()
    if not rational:
        return AffineRecurrence.build(initial, g, f, a, b)
    c, d = rng.uniform(0.0, 0.2, n).tolist(), rng.uniform(1.0, 1.5, n).tolist()
    return RationalRecurrence.build(initial, g, f, a, b, c, d)


def test_a_rounds_plan_holds_pred_alone_until_a_solve_caches_its_schedule():
    sys_ = zigzag(2000)
    plan = Session(sys_).plan
    assert plan.strategy == "rounds"
    assert plan_nbytes(plan) == plan.pred.nbytes  # no schedule built
    payload = plan_to_dict(plan)
    assert {"pred", "levels", "steps"} & set(payload) == {"pred"}
    solve(sys_, plan=plan)
    steps = plan.round_steps()
    assert plan.round_steps() is steps  # cached: the one schedule
    schedule = sum(a.nbytes + s.nbytes for a, s in steps)
    assert plan_nbytes(plan) == plan.pred.nbytes + plan.terminal_idx.nbytes + schedule
    assert plan_to_dict(plan) == payload  # and never written


OPTIONS = {
    "numpy": EngineOptions(),
    "python": EngineOptions(backend="python"),
    "max_rounds": EngineOptions(policy=SolvePolicy(max_rounds=3, on_exhaustion="partial")),
}
MOEBIUS_PATHS = ("affine", "rational", "object")


@pytest.mark.parametrize(
    "make, options",
    [(zigzag, OPTIONS[name]) for name in OPTIONS]
    + [
        (lambda: moebius_zigzag(rational=path == "rational"), EngineOptions(backend_options={"path": path}))
        for path in MOEBIUS_PATHS
    ],
    ids=list(OPTIONS) + [f"moebius-{path}" for path in MOEBIUS_PATHS],
)
def test_a_shipped_rounds_plan_solves_as_the_original(make, options):
    source = make()
    plan = solve(source, cache=PlanCache()).plan
    assert plan.strategy == "rounds"
    payload = json.loads(json.dumps(plan_to_dict(plan)))
    assert payload["schema_version"] == 6 and "steps" not in payload
    shipped = plan_from_dict(payload)
    assert shipped.strategy == "rounds" and np.array_equal(shipped.pred, plan.pred)
    want = execute(plan, source, options=options, collect_stats=True)
    got = execute(shipped, source, options=options, collect_stats=True)
    assert want.strategy == got.strategy == "rounds"
    assert got.values == want.values  # bit for bit: the same rounds
    assert got.stats.rounds == want.stats.rounds
    assert got.stats.active_per_round == want.stats.active_per_round
    if options.policy is not None:  # truncated after its budget
        assert got.stats.rounds == 3 < shipped.rounds


def test_a_rounds_plan_is_proved_by_its_pred():
    sys_ = zigzag(300)
    plan = solve(sys_, cache=PlanCache()).plan
    assert plan.strategy == "rounds"
    assert verify_plan(plan).ok and verify_plan(plan, system=sys_).ok
    forward = backward = 0
    for seed in range(12):
        mut = mutate_plan(plan, "corrupt_pred", seed=seed)
        i = mut.data["iteration"]
        report = verify_plan(mut.plan, system=sys_)
        assert [f.code for f in report.errors] == ["SCH006"], mut.description
        bare = verify_plan(mut.plan)  # without the system: the loop order
        if mut.plan.pred[i] >= i:
            forward += 1
            assert [f.code for f in bare.errors] == ["SCH005"], mut.description
        else:  # a backward pred is a valid forest of another system
            backward += 1
            assert bare.ok
    assert forward and backward
