"""NumericGuard: tolerance-aware singularity, health scans, and the
float -> exact -> sequential degradation ladder."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.core.moebius import (
    AffineRecurrence,
    Mat2,
    RationalRecurrence,
    moebius_compose,
    run_moebius_sequential,
)
from repro.resilience import GuardReport, NumericGuard, default_guard
from .._legacy_solvers import solve_moebius, solve_rational_numpy

INF = float("inf")


def _counter(snapshot, name, **labels):
    for entry in snapshot:
        if entry["name"] == name and entry.get("labels", {}) == labels:
            return entry["value"]
    return 0


# ---------------------------------------------------------------------------
# singularity tests
# ---------------------------------------------------------------------------


def test_is_singular_exact_zero_always():
    guard = NumericGuard(det_rel_tol=0.0)
    assert guard.is_singular(0, 100)
    assert guard.is_singular(0.0, 100.0)
    assert not guard.is_singular(1e-30, 1.0)


def test_is_singular_tolerance_scales():
    guard = default_guard()
    # drift far below 64 ulp of the scale counts as zero ...
    assert guard.is_singular(1e-18, 1.0)
    # ... genuinely regular determinants do not
    assert not guard.is_singular(0.5, 1.0)
    assert not guard.is_singular(1e-18, 1e-18)


def test_is_singular_exact_types_never_tolerance():
    from fractions import Fraction

    guard = default_guard()
    tiny = Fraction(1, 10**30)
    assert not guard.is_singular(tiny, Fraction(1))
    assert guard.is_singular(Fraction(0), Fraction(1))


def test_mat_is_constant_drifting_rank1():
    # [[a, b], [s*a, s*b]] is mathematically rank 1, but float rounding
    # leaves det = a*(s*b) - b*(s*a) = -4.3e-19 != 0: the exact test the
    # object engine used misclassifies it as a non-constant map.
    a, b, s = 0.1, 0.3, 0.1
    mat = Mat2(a, b, s * a, s * b)
    assert mat.det() != 0.0
    assert not mat.is_constant_map()  # exact test: misclassified
    assert mat.is_constant_map(default_guard())  # guarded: correct


def test_guarded_compose_absorbs_garbage_inner():
    # The point of the constant-map test: a constant outer map must
    # absorb its inner segment.  With the exact test the drifting
    # rank-1 outer composes with a non-finite inner and produces
    # non-finite entries; the guard stops that.
    a, b, s = 0.1, 0.3, 0.1
    outer = Mat2(a, b, s * a, s * b)
    inner = Mat2(INF, 1.0, 0.0, 1.0)
    exact = moebius_compose(outer, inner)
    assert any(
        math.isinf(v) or math.isnan(v)
        for v in (exact.a, exact.b, exact.c, exact.d)
    )
    guarded = moebius_compose(outer, inner, default_guard())
    assert guarded == outer


def test_singular_mask_matches_scalar_test():
    guard = default_guard()
    a = np.array([0.1, 1.0, 2.0])
    b = np.array([0.3, 0.0, 3.0])
    c = np.array([0.1 * 0.1, 0.0, 4.0])
    d = np.array([0.1 * 0.3, 1.0, 6.0])
    mask = guard.singular_mask(a, b, c, d)
    expect = [
        guard.mat_is_constant(Mat2(a[i], b[i], c[i], d[i])) for i in range(3)
    ]
    assert mask.tolist() == expect
    assert mask.tolist() == [True, False, True]


def test_singular_mask_exact_mode():
    guard = NumericGuard(det_rel_tol=0.0)
    a, b, s = 0.1, 0.3, 0.1
    mask = guard.singular_mask(
        np.array([a]), np.array([b]), np.array([s * a]), np.array([s * b])
    )
    assert mask.tolist() == [False]


# ---------------------------------------------------------------------------
# satellite regression: drifting near-singular chain
# ---------------------------------------------------------------------------


def test_rational_chain_with_drifting_singular_matrices():
    """A chain of rank-1 (constant-map) matrices whose float dets drift
    off zero: the guarded rational engine must classify them as
    constant and agree with the sequential loop."""
    rows = [(0.1, 0.3, 0.1), (0.1, 0.3, 0.2), (0.1, 0.3, 0.7), (0.1, 0.3, 1.3)]
    n = 8
    A, B, C, D = [], [], [], []
    for i in range(n):
        a, b, s = rows[i % len(rows)]
        A.append(a)
        B.append(b)
        C.append(s * a)
        D.append(s * b)
    rec = RationalRecurrence.build(
        initial=[1.0] * (n + 1),
        g=list(range(1, n + 1)),
        f=list(range(n)),
        a=A,
        b=B,
        c=C,
        d=D,
    )
    # every matrix really drifted (the premise of the regression)
    assert all(A[i] * D[i] - B[i] * C[i] != 0.0 for i in range(n))
    oracle = run_moebius_sequential(rec)
    guarded, _ = solve_rational_numpy(rec, guard=default_guard())
    for got, want in zip(guarded, oracle):
        assert got == pytest.approx(want, rel=1e-9)
    # auto mode routes through the same guarded path
    auto, _ = solve_moebius(rec)
    for got, want in zip(auto, oracle):
        assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# health scans
# ---------------------------------------------------------------------------


def test_check_values_counts_and_fatality():
    guard = default_guard()
    report = guard.check_values([1.0, float("nan"), INF, 3], where="t")
    assert report.checked == 4
    assert report.nan_count == 1
    assert report.inf_count == 1
    assert report.bad_cells == [1]  # inf is not fatal by default
    assert not report.healthy

    tolerant = NumericGuard(nan_fatal=False)
    assert tolerant.check_values([float("nan")]).healthy

    strict = NumericGuard(inf_fatal=True)
    assert strict.check_values([INF]).bad_cells == [0]


def test_check_values_ignores_exact_types():
    from fractions import Fraction

    report = default_guard().check_values([Fraction(1, 3), 7, "x"])
    assert report.healthy
    assert report.nan_count == 0


def test_guard_report_to_dict():
    report = GuardReport(where="m", checked=3, nan_count=1, bad_cells=[2])
    doc = report.to_dict()
    assert doc["where"] == "m"
    assert doc["bad_cells"] == [2]
    assert "NaN" in report.describe()


# ---------------------------------------------------------------------------
# the degradation ladder (acceptance criterion)
# ---------------------------------------------------------------------------


def _nan_engineered_recurrence():
    """Two interleaved affine chains (``X[j] = 1e300 * X[pred]``) whose
    float fast path manufactures NaN: their strides alternate 1 and 3,
    so no run outgrows a pair and the maps plan pointer-jumping rounds
    (the chains are 64 deep, past the level layout), and composing two
    overflowed (inf, 0) segments multiplies 0 * inf."""
    n = 128
    idx = np.arange(n)
    pred = np.where(idx % 2 == 1, idx - 1, idx - 3)  # strides 1, 3, 1, ...
    f = pred + 2  # iteration i writes cell i + 2
    f[[0, 2]] = [0, 1]  # the two roots read the initial cells
    return AffineRecurrence.build(
        initial=[1.0, 1.0] + [0.0] * n,
        g=list(range(2, n + 2)),
        f=f.tolist(),
        a=[1e300] * n,
        b=[0.0] * n,
    )


def test_chain_scan_keeps_the_loops_overflow():
    """On one chain the affine chain scan folds in loop order inside a
    tile, so the overflow the rounds path turns into NaN stays the
    loop's inf -- no escalation needed."""
    n = 8
    rec = AffineRecurrence.build(
        initial=[1.0] + [0.0] * n,
        g=list(range(1, n + 1)),
        f=list(range(n)),
        a=[1e300] * n,
        b=[0.0] * n,
    )
    from .._legacy_solvers import solve_affine_numpy

    raw, _ = solve_affine_numpy(rec)
    assert raw == run_moebius_sequential(rec)
    assert math.isinf(raw[-1])


def test_engineered_nan_escalates_to_correct_result():
    rec = _nan_engineered_recurrence()
    oracle = run_moebius_sequential(rec)

    # the raw float fast path really is sick (the premise)
    from .._legacy_solvers import solve_affine_numpy

    raw, _ = solve_affine_numpy(rec)
    assert any(isinstance(v, float) and math.isnan(v) for v in raw) or any(
        math.isnan(float(v)) for v in raw if isinstance(v, (float, np.floating))
    )

    # auto mode returns the correct (overflow-to-inf) result instead
    out, _ = solve_moebius(rec)
    assert list(map(float, out)) == list(map(float, oracle))
    assert math.isinf(float(out[-1]))


def test_escalation_is_visible_in_obs_metrics():
    rec = _nan_engineered_recurrence()
    with obs.observed() as (_tracer, registry):
        out, _ = solve_moebius(rec)
        snapshot = registry.snapshot()
    oracle = run_moebius_sequential(rec)
    assert list(map(float, out)) == list(map(float, oracle))
    assert (
        _counter(snapshot, "resilience.guard.trips", kind="nan", engine="affine")
        == 1
    )
    assert (
        _counter(
            snapshot, "resilience.escalations", source="affine", target="exact"
        )
        == 1
    )


def test_explicit_engine_stays_unguarded():
    # An explicitly selected engine must keep its raw float semantics:
    # no silent escalation behind the caller's back.
    rec = _nan_engineered_recurrence()
    out, _ = solve_moebius(rec, engine="affine")
    assert any(math.isnan(float(v)) for v in out)


def test_explicit_guard_object_on_explicit_engine():
    # ... but passing a concrete guard arms the ladder even for an
    # explicit engine choice.
    rec = _nan_engineered_recurrence()
    oracle = run_moebius_sequential(rec)
    out, _ = solve_moebius(rec, engine="affine", guard=default_guard())
    assert list(map(float, out)) == list(map(float, oracle))


def test_sequential_rung_when_exact_unavailable():
    # Non-finite *input* scalars make the Fraction rung impossible; the
    # ladder must fall through to the sequential baseline.
    n = 4
    rec = AffineRecurrence.build(
        initial=[1.0] * (n + 1),
        g=list(range(1, n + 1)),
        f=list(range(n)),
        a=[1e300, INF, 1e300, 1e300],
        b=[0.0] * n,
    )
    oracle = run_moebius_sequential(rec)
    with obs.observed() as (_tracer, registry):
        out, _ = solve_moebius(rec)
        snapshot = registry.snapshot()
    assert [float(v) for v in out] == [float(v) for v in oracle]
    sources = [
        e["labels"]
        for e in snapshot
        if e["name"] == "resilience.escalations"
    ]
    if sources:  # fast path may already agree; escalate only if it tripped
        assert all(lbl["target"] in ("exact", "sequential") for lbl in sources)
