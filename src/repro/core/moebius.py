"""Moebius-transformation reduction for affine/rational recurrences
(paper, section 3: "Useful Application for the Ordinary IR Solution").

The recurrences handled here are *not* ordinary IR systems -- the
update ``X[g(i)] := a[i]*X[f(i)] + b[i]`` mixes multiplication and
addition, which is not a single associative operator on scalars.  The
paper's trick (Lemma 2, the Moebius/linear-fractional transformation)
lifts the scalars to 2x2 matrices:

.. math::

   x \\mapsto \\frac{a x + b}{c x + d}
   \\quad\\Longleftrightarrow\\quad
   \\begin{pmatrix} a & b \\\\ c & d \\end{pmatrix}

under which *composition of maps is matrix multiplication*.  The
operator is adjusted to

.. math::

   A \\odot B = \\begin{cases} A & \\det(A) = 0 \\\\ A B &
   \\text{otherwise} \\end{cases}

because a singular matrix represents a *constant* map (rank 1:
``(ax+b)/(cx+d)`` with ``ad = bc`` ignores ``x``), and composing a
constant map with anything on its right leaves it unchanged.  ``odot``
remains associative over all 2x2 matrices (property-tested).

Reduction recipe implemented by :func:`solve_moebius`:

1. every iteration ``i`` gets the coefficient matrix of its map
   (affine: ``[[a,b],[0,1]]``; rational: ``[[a,b],[c,d]]``; with a
   self term ``X[g(i)] + ...`` the paper rewrites ``X[g(i)]`` to its
   initial value -- legal since ``g`` is distinct -- giving
   ``[[S*c + a, S*d + b], [c, d]]``);
2. initial values become *constant-map* matrices ``[[0, S[x]], [0, 1]]``
   (singular by construction, so degeneracy detection is exact even in
   floating point);
3. the matrix array is solved as an **OrdinaryIR** system whose
   operator multiplies the own-cell segment on the left of the
   ``f``-operand segment -- building, for the Lemma-1 chain
   ``i = j_0 > j_1 > ... > j_k``, the product
   ``M_{j_0} M_{j_1} ... M_{j_k} . Const(S[f(j_k)])``, i.e. exactly
   the composition ``phi_{j_0} o ... o phi_{j_k}`` applied to the
   terminal's initial value;
4. every resulting matrix is singular (its right factor is), hence a
   constant map; evaluating it yields ``X'[g(i)]``.

The whole pipeline therefore runs in the OrdinaryIR bound:
``O(log n)`` parallel steps, ``O(n)`` processors, *without any data
dependence analysis* -- the paper demonstrates this on Livermore
kernel 23 (see :mod:`repro.livermore.parallel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..resilience.guard import NumericGuard
from .equations import IRValidationError, as_index_array
from .operators import Operator

__all__ = [
    "Mat2",
    "moebius_compose",
    "moebius_ir_operator",
    "RationalRecurrence",
    "AffineRecurrence",
    "run_moebius_sequential",
]

Number = Union[int, float, Fraction]


def _zmul(x: Number, y: Number) -> Number:
    """Product with an exact absorbing zero.

    A *structural* zero entry (the ``0`` in an affine row ``[0, 1]`` or
    a constant-map column) must wipe out its partner even when that
    partner is a non-finite float: the paper's algebra is exact, and the
    IEEE ``0 * inf = NaN`` would manufacture a NaN the ``odot``
    semantics does not have.  Finite operands take the ordinary product,
    so results on finite data are bit-identical to plain ``x * y``.
    """
    if x == 0 and isinstance(y, (float, np.floating)) and not math.isfinite(y):
        return x
    if y == 0 and isinstance(x, (float, np.floating)) and not math.isfinite(x):
        return y
    return x * y


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix standing for the Moebius map
    ``x -> (a*x + b) / (c*x + d)``.

    Entries may be ints, floats or :class:`fractions.Fraction` (the
    exact tests use Fractions).  Immutable and hashable.
    """

    a: Number
    b: Number
    c: Number
    d: Number

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def affine(a: Number, b: Number) -> "Mat2":
        """The map ``x -> a*x + b``."""
        return Mat2(a, b, 0, 1)

    @staticmethod
    def constant(value: Number) -> "Mat2":
        """The constant map ``x -> value`` as the singular matrix
        ``[[0, value], [0, 1]]`` (det exactly 0, even in floats)."""
        return Mat2(0, value, 0, 1)

    # -- algebra ----------------------------------------------------------

    def det(self) -> Number:
        return self.a * self.d - self.b * self.c

    def matmul(self, other: "Mat2") -> "Mat2":
        """Matrix product (no degeneracy special-casing).

        Entry products use the exact absorbing zero (:func:`_zmul`):
        bit-identical to the plain product on finite data, but a
        structural zero absorbs a non-finite partner instead of
        producing NaN.
        """
        return Mat2(
            _zmul(self.a, other.a) + _zmul(self.b, other.c),
            _zmul(self.a, other.b) + _zmul(self.b, other.d),
            _zmul(self.c, other.a) + _zmul(self.d, other.c),
            _zmul(self.c, other.b) + _zmul(self.d, other.d),
        )

    def apply(self, x: Number) -> Number:
        """Evaluate the Moebius map at ``x`` (true division)."""
        num = self.a * x + self.b
        den = self.c * x + self.d
        return num / den

    def is_constant_map(self, guard: Optional[NumericGuard] = None) -> bool:
        """True when the map ignores its argument (singular matrix).

        With a :class:`~repro.resilience.NumericGuard`, the test is
        tolerance-aware -- ``|det| <= tol * (|ad| + |bc|)`` -- so a
        mathematically singular matrix whose determinant drifted off
        exact zero under float accumulation is still classified as a
        constant map.  Without one, the exact ``det == 0`` test of the
        paper's algebra is used.
        """
        if guard is not None:
            return guard.mat_is_constant(self)
        return self.det() == 0

    def constant_value(self) -> Number:
        """The value of a constant map.

        Prefers the exact ``b/d`` form (first column zero -- the shape
        all matrices produced by :func:`solve_moebius` have); falls
        back to evaluating the rank-1 map at a non-pole point.
        """
        if not self.is_constant_map():
            raise ValueError(f"{self} is not a constant map")
        if self.a == 0 and self.c == 0:
            return self.b / self.d
        if self.d != 0:
            return self.apply(0)
        return self.apply(1)


def moebius_compose(
    outer: Mat2, inner: Mat2, guard: Optional[NumericGuard] = None
) -> Mat2:
    """The paper's ``odot``: ``outer`` if it is singular (a constant
    map absorbs whatever runs through it first), else the matrix
    product ``outer @ inner`` (= map composition ``outer o inner``).

    ``guard`` makes the singularity test tolerance-aware (see
    :meth:`Mat2.is_constant_map`)."""
    if outer.is_constant_map(guard):
        return outer
    return outer.matmul(inner)


def moebius_ir_operator(guard: Optional[NumericGuard] = None) -> Operator:
    """The OrdinaryIR operator implementing the Moebius reduction.

    IR operators receive ``(A[f(i)], A[g(i)])`` -- the *earlier*
    segment first.  Map composition needs the newer map outermost
    (leftmost), so the operator composes its second argument over its
    first: ``op(f_seg, own_seg) = own_seg (*) f_seg``.

    ``guard`` is threaded into the ``odot`` degeneracy test.
    """
    return Operator(
        name="moebius",
        fn=lambda f_seg, own_seg: moebius_compose(own_seg, f_seg, guard),
        associative=True,
        commutative=False,
        identity=Mat2.identity(),
        power=None,  # generic repeated squaring (unused by OrdinaryIR)
        cost=8,  # 4 mul + 4 add per 2x2 product, SimParC-ish
        dtype=None,
    )


# ---------------------------------------------------------------------------
# Recurrence descriptions
# ---------------------------------------------------------------------------


@dataclass
class RationalRecurrence:
    """``for i: X[g(i)] := (a[i]*X[f(i)] + b[i]) / (c[i]*X[f(i)] + d[i])``,
    optionally with a leading self term ``X[g(i)] + ...`` when
    ``self_term`` is set.

    ``g`` must be distinct -- the self-term rewrite replaces
    ``X[g(i)]`` by its initial value, which the paper licenses
    precisely because each cell is assigned at most once.
    """

    initial: List[Number]
    g: np.ndarray
    f: np.ndarray
    a: List[Number]
    b: List[Number]
    c: List[Number]
    d: List[Number]
    self_term: bool = False

    @classmethod
    def build(
        cls,
        initial: Sequence[Number],
        g,
        f,
        a: Sequence[Number],
        b: Sequence[Number],
        c: Sequence[Number],
        d: Sequence[Number],
        *,
        self_term: bool = False,
        n: Optional[int] = None,
    ) -> "RationalRecurrence":
        if n is None:
            n = len(a)
        rec = cls(
            initial=list(initial),
            g=as_index_array(g, n, name="g"),
            f=as_index_array(f, n, name="f"),
            a=list(a),
            b=list(b),
            c=list(c),
            d=list(d),
            self_term=self_term,
        )
        rec.validate()
        return rec

    @property
    def n(self) -> int:
        return int(self.g.shape[0])

    @property
    def m(self) -> int:
        return len(self.initial)

    def validate(self) -> None:
        self.validate_coefficients()
        self.validate_maps()

    def validate_coefficients(self) -> None:
        """One coefficient per iteration (cheap: four lengths)."""
        n = self.n
        for name, coeffs in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            if len(coeffs) != n:
                raise IRValidationError(
                    f"coefficient {name} has {len(coeffs)} entries, expected {n}"
                )

    def validate_maps(self) -> None:
        """Index maps in range and ``g`` distinct -- the part a plan
        proves once for every solve that reuses it."""
        for arr, name in ((self.g, "g"), (self.f, "f")):
            if arr.size and (arr.min() < 0 or arr.max() >= self.m):
                raise IRValidationError(f"{name} maps outside [0, {self.m})")
        if self.n and int(np.bincount(self.g, minlength=self.m).max()) > 1:
            raise IRValidationError(
                "Moebius recurrences require distinct g (each cell assigned "
                "once); the self-term rewrite and the constant-map "
                "initialization both rely on it"
            )

    def coefficient_matrix(self, i: int) -> Mat2:
        """The Moebius matrix of iteration ``i`` (paper section 3,
        including the self-term rewrite
        ``[[S*c + a, S*d + b], [c, d]]``)."""
        a, b, c, d = self.a[i], self.b[i], self.c[i], self.d[i]
        if self.self_term:
            s = self.initial[int(self.g[i])]
            return Mat2(s * c + a, s * d + b, c, d)
        return Mat2(a, b, c, d)


@dataclass
class AffineRecurrence(RationalRecurrence):
    """``for i: X[g(i)] := a[i]*X[f(i)] + b[i]`` (plus an optional self
    term) -- the rational form with ``c = 0, d = 1``."""

    @classmethod
    def build(  # type: ignore[override]
        cls,
        initial: Sequence[Number],
        g,
        f,
        a: Sequence[Number],
        b: Sequence[Number],
        *,
        self_term: bool = False,
        n: Optional[int] = None,
    ) -> "AffineRecurrence":
        if n is None:
            n = len(a)
        rec = cls(
            initial=list(initial),
            g=as_index_array(g, n, name="g"),
            f=as_index_array(f, n, name="f"),
            a=list(a),
            b=list(b),
            c=[0] * n,
            d=[1] * n,
            self_term=self_term,
        )
        rec.validate()
        return rec


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def run_moebius_sequential(rec: RationalRecurrence) -> List[Number]:
    """Ground-truth sequential execution of the recurrence.

    Scalar products use the exact absorbing zero (:func:`_zmul`): a
    structural zero coefficient (``c = 0`` in an affine row, ``a = 0``
    in a constant assignment) absorbs a non-finite operand value, so an
    ``inf`` flowing through the chain does not manufacture NaN where
    the recurrence's own semantics has none.  Finite data is untouched.
    """
    X = list(rec.initial)
    g = rec.g.tolist()
    f = rec.f.tolist()
    for i in range(rec.n):
        x_f = X[f[i]]
        num = _zmul(rec.a[i], x_f) + rec.b[i]
        den = _zmul(rec.c[i], x_f) + rec.d[i]
        value = num / den
        if rec.self_term:
            value = X[g[i]] + value
        X[g[i]] = value
    return X


#: Ints up to this magnitude convert to float64 exactly.
_EXACT_INT = 2**53


def _float_column(
    xs: Sequence[Number],
) -> Optional[Tuple[Optional[np.ndarray], bool]]:
    """``(column, has_float)`` when every element of ``xs`` is a plain
    int or float, else ``None`` (bools, Fractions, ...).

    Classified by exact element type in one C-level pass -- dtype
    inference alone cannot, since ``np.asarray([True, 0.5])`` is
    float64.  ``column`` is the float64 array, or ``None`` when an int
    is too large for float64 to hold exactly or a float is narrower
    than float64 (callers then take the per-element path).
    """
    has_float = has_int = False
    narrow = False  # float32 & co. compute in their own precision
    for t in set(map(type, xs)):
        if issubclass(t, (bool, np.bool_)):
            return None
        if issubclass(t, (float, np.floating)):
            has_float = True
            narrow = narrow or not issubclass(t, float)
        elif issubclass(t, (int, np.integer)):
            has_int = True
        else:
            return None
    if narrow:
        return None, has_float
    try:
        arr = np.asarray(xs)
    except OverflowError:
        return None, has_float
    if arr.dtype.kind not in "iuf":
        return None, has_float
    if has_int and arr.size and float(np.abs(arr).max()) > _EXACT_INT:
        return None, has_float  # an int float64 may round
    return arr.astype(np.float64, copy=False), has_float


@dataclass
class FloatScalars:
    """A recurrence's scalars as float64 columns (see
    :func:`_float_scalars`); a column is ``None`` when only the
    per-element path converts it exactly."""

    initial: Optional[np.ndarray]
    a: Optional[np.ndarray]
    b: Optional[np.ndarray]
    c: Optional[np.ndarray]
    d: Optional[np.ndarray]
    saw_float: bool

    @property
    def complete(self) -> bool:
        return all(
            col is not None for col in (self.initial, self.a, self.b, self.c, self.d)
        )


def _float_scalars(rec: "RationalRecurrence") -> Optional[FloatScalars]:
    """Every scalar of ``rec`` as float64 columns, or ``None`` when one
    is not a plain int/float (exact types keep the object engine)."""
    columns = []
    saw_float = False
    for xs in (rec.initial, rec.a, rec.b, rec.c, rec.d):
        col = _float_column(xs)
        if col is None:
            return None
        columns.append(col[0])
        saw_float = saw_float or col[1]
    return FloatScalars(*columns, saw_float=saw_float)


def _floatable_scalars(scalars: Optional[FloatScalars]) -> bool:
    """True when every scalar is a plain int/float (safe to cast to
    float64) and at least one is a float (``scalars`` is
    :func:`_float_scalars`'s result).  All-int and exact-Fraction
    systems must keep the exact object engine."""
    return scalars is not None and scalars.saw_float


def _affine_fast_path_applicable(
    rec: "RationalRecurrence", scalars: Optional[FloatScalars]
) -> bool:
    """The vectorized affine engine applies when the recurrence is
    affine (``c = 0``, ``d != 0``) over float-castable scalars --
    exact types (Fraction, all-int data) must keep the object engine."""
    if not _floatable_scalars(scalars):
        return False
    if scalars.c is not None and scalars.d is not None:
        return bool((scalars.c == 0).all() and (scalars.d != 0).all())
    return all(x == 0 for x in rec.c) and all(x != 0 for x in rec.d)


def _as_exact(rec: RationalRecurrence) -> Optional[RationalRecurrence]:
    """An exact-``Fraction`` copy of the recurrence, or ``None`` when
    one cannot represent it (a non-finite scalar)."""

    def convert(xs: Sequence[Number]) -> Optional[List[Number]]:
        out: List[Number] = []
        for x in xs:
            if isinstance(x, Fraction):
                out.append(x)
            elif isinstance(x, (int, np.integer)) and not isinstance(x, bool):
                out.append(Fraction(int(x)))
            elif isinstance(x, (float, np.floating)) and math.isfinite(x):
                out.append(Fraction(float(x)))
            else:
                return None
        return out

    columns = [convert(rec.initial)] + [
        convert(c) for c in (rec.a, rec.b, rec.c, rec.d)
    ]
    if any(col is None for col in columns):
        return None
    initial, a, b, c, d = columns
    return RationalRecurrence(
        initial=initial,  # type: ignore[arg-type]
        g=rec.g.copy(),
        f=rec.f.copy(),
        a=a,  # type: ignore[arg-type]
        b=b,  # type: ignore[arg-type]
        c=c,  # type: ignore[arg-type]
        d=d,  # type: ignore[arg-type]
        self_term=rec.self_term,
    )


def _exact_to_float(value: Number) -> Number:
    """Fraction -> float64 with overflow saturating to +/-inf, matching
    the float engines' IEEE semantics."""
    if isinstance(value, Fraction):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return value
