"""Moebius plans and value kernels: one schedule, three representations.

Every numeric path replays the same :class:`~repro.engine.plan.
MoebiusPlan` (an OrdinaryIR round schedule over ``(g, f)``) -- the
pointer-jumping structure is independent of how the matrices are
represented:

* ``object`` -- exact ``Mat2`` coefficient matrices composed by an
  ordinary round kernel under the ``odot`` operator
  (:func:`object_inputs` / :func:`evaluate_object` bracket it);
* ``affine`` -- :class:`AffineRounds`, the ``(a, b)`` sweep for
  ``c = 0`` recurrences (single vectors and stacked ``(k, n)``
  batches share its round);
* ``rational`` -- :class:`RationalRounds`, float ``(A, B, C, D)``.

Path selection (``auto``) and the guard mode are resolved by
:func:`resolve_mode`; the degradation ladder, policy, spans and
verification belong to :mod:`repro.engine.driver`.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple

import numpy as np

from ..core.equations import IRValidationError
from ..core.moebius import (
    FloatScalars,
    Mat2,
    RationalRecurrence,
    _affine_fast_path_applicable,
    _float_scalars,
    _floatable_scalars,
)
from ..resilience.guard import NumericGuard, default_guard
from . import exec_ordinary
from .plan import MoebiusPlan, OrdinaryPlan

__all__ = [
    "PATHS",
    "resolve_path",
    "resolve_mode",
    "build_plan",
    "affine_coefficients",
    "scatter_base",
    "stackable_affine",
    "AffineRounds",
    "RationalRounds",
]

PATHS = ("auto", "object", "affine", "rational")


def resolve_path(
    rec: RationalRecurrence, path: str, scalars: Optional[FloatScalars]
) -> str:
    """Concrete numeric path of an ``auto`` request (mirrors the
    historical engine-selection rules); ``scalars`` is
    :func:`~repro.core.moebius._float_scalars`'s result."""
    if path != "auto":
        return path
    if _affine_fast_path_applicable(rec, scalars):
        return "affine"
    if _floatable_scalars(scalars):
        return "rational"
    return "object"


def resolve_mode(
    rec: RationalRecurrence, options: Mapping[str, Any]
) -> Tuple[str, Optional[NumericGuard], Optional[FloatScalars]]:
    """Check ``rec``'s coefficients and resolve its ``(path, guard,
    scalars)``; the index maps are validated once per plan
    (:func:`build_plan`).

    ``scalars`` are the recurrence's float64 columns, classified once
    here for the path rules and the float kernels (``None`` when a
    scalar is not a plain int/float).  ``guard="auto"`` arms the
    default numeric guard only for ``auto`` solves: explicitly selected
    paths keep their bit-level behaviour unguarded.
    """
    rec.validate_coefficients()
    path = options.get("path", "auto")
    guard = options.get("guard", "auto")
    if isinstance(guard, str):
        if guard != "auto":
            raise ValueError(f"unknown guard mode {guard!r}")
        guard = default_guard() if path == "auto" else None
    scalars = _float_scalars(rec) if path in ("auto", "affine", "rational") else None
    resolved = resolve_path(rec, path, scalars)
    if resolved not in PATHS[1:]:
        raise ValueError(f"unknown engine {resolved!r}")
    return resolved, guard, scalars


def build_plan(rec: RationalRecurrence, fingerprint: str) -> MoebiusPlan:
    """Validate the index maps and plan the shared pointer-jumping
    structure over ``(g, f)`` (every Moebius kernel runs rounds)."""
    rec.validate_maps()
    ordinary = exec_ordinary.build_plan_from_maps(
        rec.g, rec.f, rec.m, fingerprint
    )
    return MoebiusPlan(
        fingerprint=fingerprint, n=rec.n, m=rec.m, ordinary=ordinary
    )


# ---------------------------------------------------------------------------
# object path: the ordinary kernel under the odot operator
# ---------------------------------------------------------------------------


def object_inputs(rec: RationalRecurrence) -> Tuple[List[Mat2], List[Mat2]]:
    """``(coefficients, constants)``: the OrdinaryIR initial array of
    the reduction (each assigned cell holds its coefficient matrix) and
    the ``f_initial`` its terminals read (every cell's constant map)."""
    const = [Mat2.constant(x) for x in rec.initial]
    coeff = list(const)
    for i in range(rec.n):
        coeff[int(rec.g[i])] = rec.coefficient_matrix(i)
    return coeff, const


def evaluate_object(rec: RationalRecurrence, g: np.ndarray, solved) -> List[Any]:
    """Evaluate the composed per-iteration matrices.  A complete
    composition ends in a constant map; following the paper, a rank-1
    matrix not in ``b/d`` form is fed ``S[g(i)]`` as its (irrelevant)
    argument."""
    out = []
    for cell, mat in zip(g.tolist(), solved):
        if mat.a == 0 and mat.c == 0:
            out.append(mat.b / mat.d)
        else:
            out.append(mat.apply(rec.initial[cell]))
    return out


# ---------------------------------------------------------------------------
# affine path
# ---------------------------------------------------------------------------


def _affine_base(
    rec: RationalRecurrence, scalars: Optional[FloatScalars] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized per-iteration ``(a, b)`` coefficients, terminal fold
    **not** applied.  Checks the affine preconditions (``c = 0``,
    ``d != 0``).

    With complete float ``scalars`` this is array arithmetic --
    ``(S*c + a) / d`` and ``(S*d + b) / d`` under a self term, else
    ``a / d`` and ``b / d`` -- the same IEEE operations, in the same
    order, as the per-iteration ``Mat2`` walk it replaces (kept for
    exact and oversized scalars).
    """
    rec.validate_coefficients()
    if scalars is not None and scalars.complete:
        A, B, C, D = scalars.a, scalars.b, scalars.c, scalars.d
        if (C != 0).any():
            raise IRValidationError(
                "the affine path requires c = 0 everywhere; use the "
                "rational or object path for rational recurrences"
            )
        if (D == 0).any():
            raise ZeroDivisionError("affine normalization needs d != 0")
        if rec.self_term:
            S = scalars.initial[rec.g]
            A, B = S * C + A, S * D + B
        return A / D, B / D
    n = rec.n
    if any(c != 0 for c in rec.c):
        raise IRValidationError(
            "the affine path requires c = 0 everywhere; use the "
            "rational or object path for rational recurrences"
        )
    if any(d == 0 for d in rec.d):
        raise ZeroDivisionError("affine normalization needs d != 0")

    # per-iteration normalized coefficients (self-term folded in)
    a = np.empty(n, dtype=np.float64)
    b = np.empty(n, dtype=np.float64)
    for i in range(n):
        mat = rec.coefficient_matrix(i)
        a[i] = mat.a / mat.d
        b[i] = mat.b / mat.d
    return a, b


def affine_coefficients(
    rec: RationalRecurrence, sched: OrdinaryPlan, values=None, scalars=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The affine sweep's starting ``(a, b)``, terminal fold applied,
    plus the float64 initial values ``V`` it read.

    ``values`` defaults to ``rec.initial``; a ``(k, m)`` stack of value
    rows yields ``b`` as ``(k, n)`` while ``a`` stays ``(n,)`` -- it is
    row-independent (composition multiplies coefficients without
    touching values).
    """
    a, b = _affine_base(rec, scalars)
    if values is None and scalars is not None and scalars.initial is not None:
        V = scalars.initial
    else:
        V = np.asarray(rec.initial if values is None else values, dtype=np.float64)
    if V.ndim == 2:
        b = np.repeat(b[None, :], V.shape[0], axis=0)
    ix = exec_ordinary.cells(V.ndim)
    t = sched.terminal_idx
    # terminals absorb Const(S[f(i)]): (a,b) o (0,S) = (0, a*S + b);
    # constant pairs (a == 0) keep their b untouched -- their
    # structural zero must absorb even an infinite S
    at = a[t]
    b[ix(t)] = np.where(at == 0.0, b[ix(t)], at * V[ix(sched.f[t])] + b[ix(t)])
    a[t] = 0.0
    return a, b, V


def scatter_base(V: np.ndarray, job) -> Optional[np.ndarray]:
    """``V`` -- the float64 initial values -- when the driver may
    scatter the solved cells into it: every initial value is a Python
    float, so each untouched cell comes back unchanged.  Otherwise
    ``None``, and the driver scatters onto the Python rows (ints,
    exact beyond 2**53, keep their type and value)."""
    rows = job.init if job.stacked else [job.init]
    return V if all(set(map(type, row)) == {float} for row in rows) else None


class AffineRounds:
    """Vectorized kernel for *affine* recurrences (``c = 0``): each
    round composes the newer ``(a, b)`` segment over the older one."""

    label = "affine"

    def __init__(self, job):
        scalars = job.scalars
        if scalars is None and job.stacked:  # batches skip resolve_mode
            scalars = _float_scalars(job.source)
        self.a, self.b, V = affine_coefficients(
            job.source,
            job.sched,
            job.init if job.stacked else None,
            scalars,
        )
        #: the float64 initial values the driver scatters into, if exact
        self.base = scatter_base(V, job)
        self.ix = exec_ordinary.cells(self.b.ndim)
        self.steps = job.sched.steps

    def round(self, active, src) -> None:
        a, b, ix = self.a, self.b, self.ix
        # newer segment (active) composes over the older one (src).
        # Constant pairs (a == 0) absorb: the odot rule, kept out of
        # IEEE's 0 * inf = NaN.
        const_pair = a[active] == 0.0
        new_b = np.where(
            const_pair, b[ix(active)], a[active] * b[ix(src)] + b[ix(active)]
        )
        new_a = np.where(const_pair, 0.0, a[active] * a[src])
        a[active] = new_a
        b[ix(active)] = new_b

    def solved(self):
        return self.b  # every completed map ends constant: value = b


def stackable_affine(rec: RationalRecurrence, batch) -> bool:
    """True when the whole batch can run as one stacked affine sweep:
    no self term (the self-term rewrite folds each row's initial values
    into the *coefficients*, so they stop being row-independent), affine
    shape (``c = 0``, ``d != 0``), and every scalar -- coefficients and
    all batch rows -- float-castable with at least one genuine float
    (all-int / Fraction data keeps the exact per-row object engine,
    mirroring the single-solve ``auto`` rules)."""
    if rec.self_term:
        return False
    if any(x != 0 for x in rec.c) or any(x == 0 for x in rec.d):
        return False
    saw_float = False

    def scan_slow(xs) -> bool:
        # Object/mixed rows: the original elementwise walk.
        nonlocal saw_float
        for x in xs:
            if isinstance(x, (bool, np.bool_)):
                return False
            if isinstance(x, (float, np.floating)):
                saw_float = True
            elif not isinstance(x, (int, np.integer)):
                return False
        return True

    def scan(xs) -> bool:
        # Dtype inspection classifies a whole row in O(1) after one
        # asarray pass -- the serving coalescer calls this per gather
        # window, so the O(k*n) isinstance walk above is reserved for
        # object arrays (Fraction / mixed rows), where elementwise is
        # the only sound answer.
        nonlocal saw_float
        try:
            arr = np.asarray(xs)
        except (ValueError, TypeError, OverflowError):
            return False
        if arr.dtype == object:
            return scan_slow(arr.tolist())
        if arr.dtype.kind == "f":
            saw_float = True
            return True
        if arr.dtype.kind in "iu":
            return True
        return False  # bool, complex, str, datetime, ...

    for xs in (rec.a, rec.b, rec.d):
        if not scan(xs):
            return False
    for row in batch:
        if not scan(row):
            return False
    return saw_float


# ---------------------------------------------------------------------------
# rational path
# ---------------------------------------------------------------------------


def _amul(x, y):
    # product with an exact absorbing zero (vectorized _zmul): a
    # structural 0 entry wipes out a non-finite partner instead of
    # manufacturing NaN; finite data is untouched
    out = x * y
    zero = (x == 0.0) | (y == 0.0)
    if zero.any():
        out = np.where(zero, 0.0, out)
    return out


class RationalRounds:
    """Vectorized kernel for *rational* recurrences over floats: each
    round multiplies ``(A, B, C, D)`` matrices, a singular outer map
    absorbing (the ``odot`` rule, via the guard's tolerance when one
    is armed)."""

    label = "rational"

    def __init__(self, job):
        rec, sched, guard = job.source, job.sched, job.guard
        rec.validate_coefficients()
        n = rec.n
        self.rec, self.g = rec, sched.g
        self.singular = (
            guard.singular_mask
            if guard is not None
            else (lambda a, b, c, d: a * d - b * c == 0)
        )
        scalars = job.scalars
        if scalars is not None and scalars.complete:
            A, B = scalars.a.copy(), scalars.b.copy()
            C, D = scalars.c.copy(), scalars.d.copy()
            if rec.self_term:  # [[S*c + a, S*d + b], [c, d]]
                S = scalars.initial[sched.g]
                A, B = S * C + A, S * D + B
            V = scalars.initial
        else:
            A, B, C, D = (np.empty(n) for _ in range(4))
            for i in range(n):
                mat = rec.coefficient_matrix(i)
                A[i], B[i], C[i], D[i] = mat.a, mat.b, mat.c, mat.d
            V = np.asarray(rec.initial, dtype=np.float64)
        # terminals compose their map over Const(S[f(i)]) = [[0,S],[0,1]]
        t = sched.terminal_idx
        s_f = V[sched.f[t]]
        keep = self.singular(A[t], B[t], C[t], D[t])
        new_b = np.where(keep, B[t], _amul(A[t], s_f) + B[t])
        new_d = np.where(keep, D[t], _amul(C[t], s_f) + D[t])
        new_a = np.where(keep, A[t], 0.0)
        new_c = np.where(keep, C[t], 0.0)
        A[t], B[t], C[t], D[t] = new_a, new_b, new_c, new_d
        self.abcd = A, B, C, D
        self.V = V
        #: the float64 initial values the driver scatters into, if exact
        self.base = scatter_base(V, job)
        self.steps = sched.steps

    def round(self, active, src) -> None:
        A, B, C, D = self.abcd
        ao, bo, co, do = A[active], B[active], C[active], D[active]
        ai, bi, ci, di = A[src], B[src], C[src], D[src]
        keep = self.singular(ao, bo, co, do)  # odot: singular outer absorbs
        A[active] = np.where(keep, ao, _amul(ao, ai) + _amul(bo, ci))
        B[active] = np.where(keep, bo, _amul(ao, bi) + _amul(bo, di))
        C[active] = np.where(keep, co, _amul(co, ai) + _amul(do, ci))
        D[active] = np.where(keep, do, _amul(co, bi) + _amul(do, di))

    def solved(self) -> np.ndarray:
        """Each composed map evaluated: ``b / d`` for a complete
        (constant) composition, else the rank-1 map at the paper's
        ``S[g(i)]`` argument."""
        A, B, C, D = self.abcd
        s = self.V[self.g]
        const = (A == 0) & (C == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(const, B / D, (A * s + B) / (C * s + D))
