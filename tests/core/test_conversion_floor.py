"""The per-element stages a cold request pays before planning.

* ``moebius._float_column`` converts exact-``float`` columns and lists
  or tuples of exact ``int`` with no dtype discovery.  Every input must
  classify exactly as the ``np.asarray`` route below does (kept here as
  the reference), and every Moebius path must give bit-identical
  values either way.
* ``moebius._float_coefficients`` knows the constant ``c = [0]*n`` and
  ``d = [1]*n`` that ``AffineRecurrence.build`` wrote without scanning
  them; the result must equal the scan's, and replaced ``c`` / ``d``
  lists must be scanned again.
* ``equations._distinct`` counts an in-domain map with ``np.bincount``
  and sorts anything else; both must agree with a plain sort.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ADD, GIRSystem, OrdinaryIRSystem
from repro.core import moebius
from repro.core.equations import IRValidationError, _distinct
from repro.core.moebius import (
    AffineRecurrence,
    FloatColumn,
    RationalRecurrence,
    _float_coefficients,
    _float_column,
)
from repro.core.operators import modular_add
from repro.engine import EngineOptions, exec_moebius, solve
from repro.engine.planner import PlanCache

E53 = 2**53


def reference_float_column(xs):
    """``_float_column`` by a set of exact types and ``np.asarray``
    dtype discovery: the classification the fast paths must keep."""
    if isinstance(xs, np.ndarray) and xs.dtype != object:
        types = {xs.dtype.type}
    else:
        types = set(map(type, xs))
    has_float = has_int = False
    narrow = False
    for t in types:
        if issubclass(t, (bool, np.bool_)):
            return None
        if issubclass(t, (float, np.floating)):
            has_float = True
            narrow = narrow or not issubclass(t, float)
        elif issubclass(t, (int, np.integer)):
            has_int = True
        else:
            return None
    if types == {float}:
        return FloatColumn(np.array(xs, dtype=np.float64), True, True)
    if narrow:
        return FloatColumn(None, has_float, False)
    try:
        arr = np.asarray(xs)
    except OverflowError:
        return FloatColumn(None, has_float, False)
    if arr.dtype.kind not in "iuf":
        return FloatColumn(None, has_float, False)
    if has_int and arr.size and float(np.abs(arr).max()) > E53:
        return FloatColumn(None, has_float, False)
    return FloatColumn(arr.astype(np.float64, copy=False), has_float, False)


def assert_same_column(got, want):
    """Equal classification, and float64 values equal bit for bit
    (NaN payloads and the sign of zero included)."""
    if want is None:
        assert got is None
        return
    assert got is not None
    assert (got.has_float, got.only_float) == (want.has_float, want.only_float)
    if want.values is None:
        assert got.values is None
        return
    assert got.values is not None
    assert got.values.dtype == np.float64
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()


NAN = float("nan")
INF = float("inf")

CASES = {
    "floats": [0.5, -0.0, 0.0, NAN, INF, -INF, 1e308, 5e-324],
    "one float": [2.5],
    "constant zero": [0] * 17,
    "constant one": [1] * 17,
    "constant negative": [-3] * 9,
    "one int": [7],
    "varying ints": [3, -1, 4, 1, -5, 9],
    "constant 2**53": [E53] * 4,
    "constant -2**53": [-E53] * 4,
    "constant beyond 2**53": [E53 + 1] * 4,
    "constant beyond -2**53": [-E53 - 1] * 4,
    "varying up to 2**53": [E53, -E53, 0],
    "varying beyond 2**53": [1, E53 + 1],
    "constant int64 min": [-(2**63)] * 3,
    "int64 min beside small": [-(2**63), 1],
    "int64 max": [2**63 - 1, 0],
    "beyond int64": [2**63],
    "constant beyond int64": [2**63] * 3,
    "beyond int64 negative": [-(2**63) - 1, 0],
    "beyond uint64": [2**70, 1],
    "both signs beyond int64": [2**63, -1],
    "bools": [True, False],
    "bool beside float": [True, 0.5],
    "bool beside int": [1, True],
    "np.float32": [np.float32(0.5), np.float32(1.5)],
    "np.float64": [np.float64(0.5), np.float64(-0.0)],
    "np.int64": [np.int64(3), np.int64(-4)],
    "np.uint64 beside int": [np.uint64(2**60 + 1), 1],
    "fractions": [Fraction(1, 3), Fraction(2)],
    "fraction beside int": [Fraction(1), 1],
    "int beside float": [1, 0.5, -2],
    "big int beside float": [2**60, 0.5],
    "big float beside int": [1, 1e20],
    "int beyond int64 beside float": [2**70, 0.5],
    "string": ["a", "b"],
    "none": [None],
    "int tuple": (1, 2, 3),
    "constant int tuple": (0,) * 5,
    "float tuple": (0.5, -0.0),
    "empty list": [],
    "empty tuple": (),
    "range": range(5),
    "float64 array": np.array([0.5, -0.0, NAN]),
    "float32 array": np.array([0.5], dtype=np.float32),
    "int64 array": np.array([1, -(2**62)]),
    "int32 array": np.array([1, 2], dtype=np.int32),
    "uint64 array": np.array([2**63], dtype=np.uint64),
    "bool array": np.array([True]),
    "object float array": np.array([0.5, 1.5], dtype=object),
    "object int array": np.array([1, 2], dtype=object),
    "empty float array": np.array([], dtype=np.float64),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_float_column_matches_the_reference(name):
    xs = CASES[name]
    assert_same_column(_float_column(xs), reference_float_column(xs))


ELEMENTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**54), max_value=2**54),
    st.integers(min_value=-(2**65), max_value=2**65),
    st.sampled_from([0, 1, -1, E53, E53 + 1, -(2**63), 2**63, 2**64]),
    st.booleans(),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    st.builds(np.float64, st.floats(allow_nan=False)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ELEMENTS, max_size=12),
    st.sampled_from([list, tuple]),
    st.booleans(),
)
def test_float_column_matches_the_reference_on_random_mixes(xs, kind, constant):
    if constant and xs:
        xs = [xs[0]] * len(xs)
    xs = kind(xs)
    assert_same_column(_float_column(xs), reference_float_column(xs))


# ---------------------------------------------------------------------------
# seeded cold solves: bit-identical with either classification
# ---------------------------------------------------------------------------


def cold_recurrence(seed, n, rational):
    """The ``perfbench`` cold affine request shape: fresh maps, float
    coefficients, and ``c``/``d`` as the constructor builds them (or
    float rational ones)."""
    rng = np.random.default_rng(seed)
    m = n + 1
    args = (
        rng.uniform(-1.0, 1.0, m).tolist(),
        rng.permutation(m)[:n],
        rng.integers(0, m, n),
        rng.uniform(-1.0, 1.0, n).tolist(),
        rng.uniform(-1.0, 1.0, n).tolist(),
    )
    if not rational:
        return AffineRecurrence.build(*args)
    c = rng.uniform(-0.25, 0.25, n).tolist()
    return RationalRecurrence.build(*args, c, [1] * n)


def solve_values(rec, path):
    options = EngineOptions(backend_options={"path": path})
    return solve(rec, options=options, cache=PlanCache()).values


PATH_CASES = [(False, path) for path in ("auto", "affine", "rational", "object")]
PATH_CASES += [(True, path) for path in ("auto", "rational", "object")]


@pytest.mark.parametrize("rational, path", PATH_CASES)
@pytest.mark.parametrize("seed", [7, 8])
def test_cold_solves_are_bit_identical(monkeypatch, seed, rational, path):
    n = 300 if path == "object" else 4000
    rec = cold_recurrence(seed, n, rational)
    got = solve_values(rec, path)
    for module in (moebius, exec_moebius):
        monkeypatch.setattr(module, "_float_column", reference_float_column)
    want = solve_values(rec, path)
    assert np.array(got, dtype=np.float64).tobytes() == (
        np.array(want, dtype=np.float64).tobytes()
    )


# ---------------------------------------------------------------------------
# AffineRecurrence.build's constant c / d: classified without a scan
# ---------------------------------------------------------------------------


def assert_same_coefficients(got, want):
    assert (got.saw_float, got.plain, got.affine) == (
        want.saw_float,
        want.plain,
        want.affine,
    )
    for name in "abcd":
        x, y = getattr(got, name), getattr(want, name)
        if y is None:
            assert x is None
        else:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


COEFFICIENT_COLUMNS = {
    "floats": lambda n: ([0.5] * n, [-0.25] * n),
    "ints": lambda n: (list(range(n)), [3] * n),
    "fractions": lambda n: ([Fraction(1, 3)] * n, [0.5] * n),
    "big-ints": lambda n: ([2**60] * n, [1.5] * n),
}


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_COLUMNS))
@pytest.mark.parametrize("n", [0, 1, 7, 3000])
def test_built_constant_columns_classify_like_the_scan(kind, n):
    a, b = COEFFICIENT_COLUMNS[kind](n)
    rec = AffineRecurrence.build([1.0] * (n + 1), range(1, n + 1), range(n), a, b)
    # replaced c / d lists (equal values) take the scan
    scanned = dataclasses.replace(rec, c=list(rec.c), d=list(rec.d))
    assert_same_coefficients(_float_coefficients(rec), _float_coefficients(scanned))


def test_only_the_built_c_and_d_skip_the_scan(monkeypatch):
    seen = []
    classify = moebius._float_column

    def counting(xs):
        seen.append(xs)
        return classify(xs)

    monkeypatch.setattr(moebius, "_float_column", counting)
    n = 50
    args = ([1.0] * (n + 1), range(1, n + 1), range(n), [0.5] * n, [0.25] * n)
    rec = AffineRecurrence.build(*args)

    def scanned(r):
        del seen[:]
        _float_coefficients(r)
        return [xs is r.c or xs is r.d for xs in seen]

    assert scanned(rec) == [False, False]  # a and b only
    # new initial values keep build's c / d lists
    assert scanned(dataclasses.replace(rec, initial=[2.0] * (n + 1))) == [
        False,
        False,
    ]
    assert scanned(dataclasses.replace(rec, c=[0] * n)) == [False, False, True, True]
    assert scanned(dataclasses.replace(rec, d=[2] * n)) == [False, False, True, True]
    rational = RationalRecurrence.build(*args, [0] * n, [1] * n)
    assert scanned(rational) == [False, False, True, True]


# ---------------------------------------------------------------------------
# _distinct: bincount in domain, sort otherwise
# ---------------------------------------------------------------------------


def sorted_distinct(arr):
    s = np.sort(arr)
    return bool((s[1:] != s[:-1]).all())


DISTINCT_CASES = {
    "empty": ([], 0),
    "one": ([0], 1),
    "permutation": (np.random.default_rng(1).permutation(500), 500),
    "duplicated": ([3, 1, 3], 4),
    "duplicate at the end": (list(range(9)) + [8], 10),
    "negative distinct": ([-2, -1, 0], 3),
    "negative duplicated": ([-1, 2, -1], 3),
    "above the domain distinct": ([0, 10**12], 2),
    "above the domain duplicated": ([10**12, 10**12], 2),
}


@pytest.mark.parametrize("name", sorted(DISTINCT_CASES))
def test_distinct_agrees_with_the_sort(name):
    values, m = DISTINCT_CASES[name]
    arr = np.asarray(values, dtype=np.int64)
    assert _distinct(arr, m) == sorted_distinct(arr)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=40), max_size=30),
    st.integers(min_value=0, max_value=45),
)
def test_distinct_agrees_with_the_sort_on_random_maps(values, m):
    arr = np.asarray(values, dtype=np.int64)
    assert _distinct(arr, m) == sorted_distinct(arr)


def test_duplicate_messages_are_unchanged():
    """The refusal names the first cell assigned twice and its first
    two writers, whatever test found the repeat."""
    with pytest.raises(IRValidationError) as err:
        OrdinaryIRSystem.build([1, 2, 3, 4], [2, 0, 3, 2, 0], [0] * 5, ADD)
    assert str(err.value) == (
        "OrdinaryIR requires g to be distinct (injective); cell 2 is "
        "assigned by iterations 0 and 3.  Use normalize_non_distinct() to "
        "rewrite the loop into a distinct-g GIR system."
    )
    gir = GIRSystem.build([1, 2, 3], [1, 1], [0, 0], [2, 2], modular_add(97))
    assert not gir.g_is_distinct()
    unvalidated = OrdinaryIRSystem(
        initial=[1, 2], g=np.array([-1, 5, -1]), f=np.array([0, 0, 0]), op=ADD
    )
    assert not unvalidated.g_is_distinct()
    assert unvalidated.first_duplicate_cell() == -1
