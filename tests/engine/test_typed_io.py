"""Typed I/O on the ordinary path: strict admission into a fresh
buffer, in-place chain scans.

An int64 operator admits a list (or equal-length rows) of integers in
one strict C pass per row (``array('q')``, ``__index__`` values only)
into one buffer; anything else, or anything that pass refuses --
floats, strs, Fractions, ints outside int64, and from 2**53 on
anything but exact Python ints, where ``np.array`` would promote NumPy
scalars beside them to float64 -- takes the ``np.array`` route, so
admission gives the same array, dtype and errors either way.
Admission always returns a fresh array: the chain kernel scans it in
place when chain order is one contiguous cell range, every other
typed kernel scatters into it.  A caller's own list or array is never
written to.
"""

import copy
import dataclasses
import enum
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ADD, FLOAT_ADD, MIN, MUL, OrdinaryIRSystem
from repro.core.sequential import run_ordinary
from repro.engine import EngineOptions, Session, solve, solve_batch
from repro.engine.exec_ordinary import _admit_cast, _strict_int64, admit
from repro.engine.planner import PlanCache
from repro.errors import IRValidationError
from repro.resilience import SolvePolicy

# -- admission parity --------------------------------------------------------


class Color(enum.IntEnum):
    RED = 7


class Index:
    """An integer by ``__index__`` alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


SCALARS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.integers(-100, 100).map(np.int64),
    st.integers(-100, 100).map(np.int32),
    st.integers(0, 200).map(np.uint8),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.sampled_from(
        [
            4.0,
            4.5,
            math.inf,
            -math.inf,
            math.nan,
            2**63,
            -(2**63) - 1,
            -(2**63),
            2**63 - 1,
            Fraction(4),
            Fraction(1, 2),
            "4",
            np.float64(3.0),
            np.bool_(True),
            2**53 - 1,
            -(2**53 - 1),
            2**53,
            -(2**53),
            Color.RED,
        ]
    ),
    st.sampled_from([-5, 3, 2**53 - 1, 2**53, -(2**60)]).map(Index),
)


def flat(scalars):
    return st.lists(scalars, max_size=6)


def rows(scalars):
    """Equal-length rows, or ragged ones."""
    equal = st.integers(0, 4).flatmap(
        lambda m: st.lists(
            st.lists(scalars, min_size=m, max_size=m), min_size=1, max_size=3
        )
    )
    return st.one_of(equal, st.lists(flat(scalars), min_size=1, max_size=3))


VALUES = st.one_of(flat(SCALARS), rows(SCALARS))


def outcome(route, values, op):
    try:
        arr = route(values, op)
    except IRValidationError as exc:
        return ("error", str(exc))
    if arr is None:
        return ("none",)
    return ("array", arr.dtype.str, arr.shape, arr.tolist())


@pytest.mark.parametrize("op", [ADD, MUL], ids=lambda op: op.name)
@settings(max_examples=300, deadline=None)
@given(values=VALUES)
@example(values=[2**53 + 1, np.uint64(0)])
@example(values=[[1, 2], [np.uint64(0), -(2**63)]])
@example(values=[np.int64(2**53), 2**53])
def test_admission_matches_the_general_route(op, values):
    assert outcome(admit, values, op) == outcome(_admit_cast, values, op)


@pytest.mark.parametrize(
    "last",
    [4.5, np.float64(3.0), "4", 2**63, np.uint64(2**53 + 1), Fraction(4)],
    ids=repr,
)
def test_a_refusal_in_the_last_row_takes_the_general_route(last):
    """Every row but the last passes the strict pass; the last row's one
    refused element sends the whole batch to the general route, and no
    partly filled buffer comes back."""
    values = [[1, 2, 3], [4, 5, 6], [7, 8, last]]
    assert _strict_int64(values) is None
    assert outcome(admit, values, ADD) == outcome(_admit_cast, values, ADD)


@pytest.mark.parametrize("backend", ["numpy", "python", "pram"])
def test_numpy_scalars_beside_python_ints_are_refused_on_every_backend(backend):
    """``np.uint64`` beside a Python int has no common integer dtype:
    the strict pass leaves it to the general route, where ``np.array``
    promotes to float64 -- rounding ``2**60 + 1`` to ``2**60`` -- or
    finds no exact form.  That route refuses both (exit code 3) on
    every backend alike."""
    for values in ([np.uint64(0), -(2**63)], [np.uint64(2**60 + 1), 1]):
        with pytest.raises(IRValidationError) as strict:
            admit(values, ADD)
        with pytest.raises(IRValidationError) as general:
            _admit_cast(values, ADD)
        assert str(strict.value) == str(general.value)
        assert strict.value.exit_code == 3
        system = OrdinaryIRSystem.build(values, [1], [0], ADD)
        with pytest.raises(IRValidationError):
            solve(
                system,
                cache=PlanCache(),
                options=EngineOptions(backend=backend),
            )


@pytest.mark.parametrize(
    "values,shape",
    [([1, 2, 3], (3,)), ([[1, 2], [3, 4]], (2, 2)), ([], (0,)), ([[]], (1, 0))],
)
def test_strict_admission_makes_a_fresh_int64_buffer(values, shape):
    arr = admit(values, ADD)
    assert arr.dtype == np.int64 and arr.shape == shape
    assert arr.flags.writeable and arr.flags.owndata


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_a_callers_array_is_admitted_as_a_copy(dtype):
    values = np.arange(5, dtype=dtype)
    arr = admit(values, ADD)
    assert arr.dtype == np.int64 and arr.tolist() == values.tolist()
    assert not np.shares_memory(arr, values)


# -- in-place scans ----------------------------------------------------------


def int_chain(n, op=ADD):
    return OrdinaryIRSystem.build([0] * (n + 1), np.arange(1, n + 1), np.arange(n), op)


def contiguous_forest(n, f_identity):
    """A multi-segment layout whose chain order is one contiguous cell
    range: the forest ``f_identity`` (over ``g = identity``, cells
    ``n .. n + 2`` never written) with every written cell relabelled
    to its iteration's position in chain order."""
    probe = OrdinaryIRSystem.build([0] * (n + 3), np.arange(n), f_identity, ADD)
    layout = solve(probe, cache=PlanCache()).plan.levels
    assert layout.offsets is not None and layout.segments > 1
    pos = np.empty(n, dtype=np.int64)
    pos[layout.write] = np.arange(n)  # g is the identity: cells are iterations
    relabel = np.concatenate([pos, np.arange(n, n + 3)])
    return pos, relabel[np.asarray(f_identity)], n + 3


def multilevel_maps(n=12):
    """Two chain levels: a spine, then teeth hung off spine nodes."""
    f = np.arange(n) - 1
    f[0] = n
    f[6] = 2  # a tooth reading the spine's third cell
    f[9] = 4
    return contiguous_forest(n, f)


def clobber_maps():
    """Two level-0 segments: ``{5, 6}`` (length 2, scanned first) writes
    the cell that the longer segment ``{0 .. 4}`` seeds from -- a cell
    the loop reads at its initial value, since iteration 0 runs first."""
    g = np.array([3, 4, 5, 6, 7, 1, 2])
    f = np.array([2, 3, 4, 5, 6, 0, 1])
    return g, f, 8


SHAPES = {
    "chain": lambda: (np.arange(1, 41), np.arange(40), 41),
    "multilevel": multilevel_maps,
    "clobber": clobber_maps,
}


def build(shape, values, op):
    g, f, _ = SHAPES[shape]()
    return OrdinaryIRSystem.build(values, g, f, op)


def draw_values(op, m, seed, k=None):
    rng = np.random.default_rng(seed)
    size = m if k is None else (k, m)
    if op is MUL:
        return rng.integers(-2, 3, size).tolist()
    if op is ADD:
        return rng.integers(-1000, 1000, size).tolist()
    return rng.uniform(-4.0, 4.0, size).tolist()


def in_place_attr(tracer):
    (root,) = tracer.find("solver.ordinary")
    return root.attributes["in_place"]


OPS = (ADD, MUL, FLOAT_ADD, MIN)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_plan_one_contiguous_cell_range(shape):
    *_, m = SHAPES[shape]()
    plan = solve(build(shape, [0] * m, ADD), cache=PlanCache()).plan
    write = plan.levels.write  # one contiguous cell range
    assert np.array_equal(write, np.arange(write[0], write[0] + len(write)))
    levels = {"chain": 1, "multilevel": 2, "clobber": 1}[shape]
    assert plan.levels.levels == levels


def test_clobber_probe_scans_the_writer_first():
    g, f, m = clobber_maps()
    plan = solve(build("clobber", [0] * m, ADD), cache=PlanCache()).plan
    # segment {5, 6} writes cell 2 before segment {0 .. 4} seeds from it
    assert plan.levels.write.tolist() == g[[5, 6, 0, 1, 2, 3, 4]].tolist()
    assert g[6] == f[0] == 2


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", [0, 1])
def test_single_solves_scan_in_place_bit_identical(shape, op, seed):
    *_, m = SHAPES[shape]()
    values = draw_values(op, m, seed)
    kept = copy.deepcopy(values)
    system = build(shape, values, op)
    want = run_ordinary(system)
    session = Session(build(shape, [0] * m, op))
    with obs.observed() as (tracer, _):
        got = session.solve(values)
    assert in_place_attr(tracer) is True
    assert got.strategy == "chains"
    assert got.values == want
    assert solve(system, cache=PlanCache()).values == want
    assert values == kept and system.initial == kept


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_stacked_batches_scan_in_place_bit_identical(shape, op):
    *_, m = SHAPES[shape]()
    rows = draw_values(op, m, 7, k=3)
    kept = copy.deepcopy(rows)
    system = build(shape, [0] * m, op)
    want = [run_ordinary(dataclasses.replace(system, initial=row)) for row in rows]
    with obs.observed() as (tracer, _):
        got = Session(system).solve_batch(rows)
    assert in_place_attr(tracer) is True
    assert got == want
    assert solve_batch(system, rows, cache=PlanCache()) == want
    assert rows == kept


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_f_initial_distinct_from_initial(shape, op):
    g, f, m = SHAPES[shape]()
    values, f_values = draw_values(op, m, 3), draw_values(op, m, 4)
    kept, f_kept = list(values), list(f_values)
    system = build(shape, values, op)
    got = solve(system, cache=PlanCache(), f_initial=f_values)
    # the loop's view: a terminal's f-operand reads f_initial
    want = list(values)
    written = set()
    for i in range(len(g)):
        left = want[f[i]] if f[i] in written else f_values[f[i]]
        want[g[i]] = op.fn(left, want[g[i]])
        written.add(g[i])
    assert got.strategy == "chains"
    assert got.values == want
    assert values == kept and f_values == f_kept
    rows, f_rows = [values, f_values], [f_values, values]
    batch = solve_batch(system, rows, cache=PlanCache(), f_initial_batch=f_rows)
    assert batch[0] == want
    assert rows == [kept, f_kept] and f_rows == [f_kept, kept]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_callers_int64_array_is_never_written(shape):
    *_, m = SHAPES[shape]()
    values = np.asarray(draw_values(ADD, m, 5), dtype=np.int64)
    kept = values.copy()
    system = build(shape, [0] * m, ADD)
    want = run_ordinary(dataclasses.replace(system, initial=values.tolist()))
    with obs.observed() as (tracer, _):
        got = Session(system).solve(values)
    assert in_place_attr(tracer) is True  # in admission's copy
    assert got.values == want
    as_array = dataclasses.replace(system, initial=values)
    assert solve(as_array, cache=PlanCache()).values == want
    stack = np.stack([values, values])
    stack_kept = stack.copy()
    assert Session(system).solve_batch(stack) == [want, want]
    assert solve_batch(system, stack, cache=PlanCache()) == [want, want]
    assert np.array_equal(values, kept) and np.array_equal(stack, stack_kept)


def test_session_passes_an_ndarray_through_unboxed():
    system = int_chain(8)
    values = np.arange(9, dtype=np.int64)
    got = Session(system).solve(values)
    assert got.values == run_ordinary(
        dataclasses.replace(system, initial=values.tolist())
    )
    assert all(type(v) is int for v in got.values)


def test_permuted_chain_order_gathers_and_scatters():
    """A forest plan whose chain order is not contiguous gathers, scans
    and scatters: ``in_place`` is false, results still the loop's."""
    n = 7
    f = np.arange(n) - 1
    f[0] = n
    f[5] = n + 1  # a shorter second root segment, scanned first
    system = OrdinaryIRSystem.build(
        draw_values(ADD, n + 3, 9), np.arange(n), f, ADD
    )
    kept = list(system.initial)
    with obs.observed() as (tracer, _):
        got = solve(system, cache=PlanCache())
    assert got.strategy == "chains"
    assert in_place_attr(tracer) is False
    assert got.values == run_ordinary(system)
    assert system.initial == kept


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_round_budget_still_runs_rounds(shape):
    *_, m = SHAPES[shape]()
    values = draw_values(ADD, m, 11)
    kept = list(values)
    session = Session(
        build(shape, [0] * m, ADD),
        options=EngineOptions(policy=SolvePolicy(max_rounds=64)),
    )
    with obs.observed() as (tracer, _):
        got = session.solve(values)
    assert got.strategy == "rounds"
    assert in_place_attr(tracer) is False
    assert got.values == run_ordinary(build(shape, values, ADD))
    assert values == kept


def test_an_int_chain_that_may_wrap_still_escalates_to_exact_ints():
    values = [2**62] * 10
    kept = list(values)
    system = OrdinaryIRSystem.build(values, np.arange(1, 10), np.arange(9), ADD)
    got = Session(system).solve(values)
    assert got.strategy == "rounds"
    assert got.values == run_ordinary(system)
    assert got.values[-1] == 10 * 2**62  # past int64: exact Python ints
    assert values == kept
    rows = [values, values]
    assert Session(system).solve_batch(rows) == [got.values, got.values]
    assert rows == [kept, kept]
