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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..resilience.guard import NumericGuard
from .equations import IRValidationError, _distinct, as_index_array
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
        if not _distinct(self.g, self.m):
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

    #: the constant ``(c, d)`` lists :meth:`build` wrote: while ``c`` and
    #: ``d`` are still these objects, :func:`_float_coefficients` knows
    #: their columns without scanning them
    _built_cd: Optional[Tuple[list, list]] = field(
        default=None, repr=False, compare=False
    )

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
        rec._built_cd = (rec.c, rec.d)
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


class FloatColumn(NamedTuple):
    """One scalar column classified by :func:`_float_column`."""

    #: the float64 array, or ``None`` when an int is too large for
    #: float64 to hold exactly or a float is narrower than float64
    #: (callers then take the per-element path)
    values: Optional[np.ndarray]
    has_float: bool
    #: every element is exactly a Python ``float``: a float64 copy of
    #: the column gives each element back unchanged
    only_float: bool


def _exact_types(xs: Sequence[Number]) -> set:
    """The set of ``xs``'s exact element types, in C-level passes: a
    list of types, counted against its first entry (one identity
    compare each) so a homogeneous column skips the set build."""
    types = list(map(type, xs))
    if types and types.count(types[0]) == len(types):
        return {types[0]}
    return set(types)


def _exact_float64(arr: np.ndarray) -> Optional[np.ndarray]:
    """``arr`` of ints (or ints promoted to floats) as float64, or
    ``None`` when an entry is too large for float64 to hold exactly."""
    if arr.size and float(np.abs(arr).max()) > _EXACT_INT:
        return None
    return arr.astype(np.float64, copy=False)


def _int_column(xs: Union[list, tuple]) -> Optional[np.ndarray]:
    """A non-empty list or tuple of exact ints as float64, or ``None``
    when one is too large for float64 to hold exactly.  A constant
    column (``c = [0]*n``, ``d = [1]*n``) is one C-level compare and a
    fill; any other converts through int64, never by dtype discovery."""
    n = len(xs)
    x0 = xs[0]
    if abs(x0) <= _EXACT_INT and xs.count(x0) == n:
        return np.full(n, float(x0))
    try:
        arr = np.fromiter(xs, np.int64, n)
    except OverflowError:  # beyond int64, so beyond 2**53
        return None
    return _exact_float64(arr)


def _float_column(xs: Sequence[Number]) -> Optional[FloatColumn]:
    """``xs`` classified when every element is a plain int or float,
    else ``None`` (bools, Fractions, ...).

    Classified by exact element type in C-level passes -- dtype
    inference alone cannot, since ``np.asarray([True, 0.5])`` is
    float64.  A numeric ndarray is classified by its dtype.  Columns
    of exactly ``float``, and lists or tuples of exactly ``int``,
    convert with no dtype discovery; every other mix goes through
    ``np.asarray``.
    """
    if isinstance(xs, np.ndarray) and xs.dtype != object:
        types = {xs.dtype.type}
    else:
        types = _exact_types(xs)
    has_float = has_int = False
    narrow = False  # float32 & co. compute in their own precision
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
    if types == {float}:  # Python floats are float64: no inference, no range test
        return FloatColumn(np.fromiter(xs, np.float64, len(xs)), True, True)
    if types == {int} and isinstance(xs, (list, tuple)):
        return FloatColumn(_int_column(xs), False, False)
    if narrow:
        return FloatColumn(None, has_float, False)
    try:
        arr = np.asarray(xs)
    except OverflowError:
        return FloatColumn(None, has_float, False)
    if arr.dtype.kind not in "iuf":
        return FloatColumn(None, has_float, False)
    if has_int:  # an int float64 may round
        return FloatColumn(_exact_float64(arr), has_float, False)
    return FloatColumn(arr.astype(np.float64, copy=False), has_float, False)


@dataclass(frozen=True)
class FloatCoefficients:
    """A recurrence's coefficient columns ``a, b, c, d`` classified by
    :func:`_float_column` -- the value-independent half of
    :func:`_float_scalars`, which a ``Session`` computes once.  A
    column is ``None`` when only the per-element path converts it
    exactly; ``plain`` is False (every column ``None``) when a
    coefficient is not a plain int/float."""

    a: Optional[np.ndarray]
    b: Optional[np.ndarray]
    c: Optional[np.ndarray]
    d: Optional[np.ndarray]
    saw_float: bool
    plain: bool
    #: ``c = 0`` and ``d != 0`` everywhere (``None``: ``c`` or ``d``
    #: has no float64 column; see :func:`_affine_shape`)
    affine: Optional[bool]

    @property
    def complete(self) -> bool:
        return all(col is not None for col in (self.a, self.b, self.c, self.d))


def _built_columns(
    rec: "RationalRecurrence",
) -> Optional[Tuple[FloatColumn, FloatColumn]]:
    """``rec``'s ``c`` and ``d`` columns as :func:`_float_column` would
    classify them, without the scan, when they are still the constant
    lists :meth:`AffineRecurrence.build` wrote (``[0]*n``, ``[1]*n``:
    int columns of 0.0 / 1.0); ``None`` for a recurrence built another
    way or whose ``c`` / ``d`` were replaced.  Like a ``Session``'s
    cached classification, this takes the coefficient lists as fixed:
    new coefficients come as new lists, not as in-place edits."""
    built = getattr(rec, "_built_cd", None)
    if built is None or built[0] is not rec.c or built[1] is not rec.d:
        return None
    n = len(rec.c)
    return (
        FloatColumn(np.zeros(n), False, False),
        FloatColumn(np.ones(n), False, False),
    )


def _float_coefficients(rec: "RationalRecurrence") -> FloatCoefficients:
    """Classify ``rec``'s coefficient columns (see :class:`FloatCoefficients`)."""
    built = _built_columns(rec)
    columns = []
    for xs in (rec.a, rec.b) if built else (rec.a, rec.b, rec.c, rec.d):
        col = _float_column(xs)
        if col is None:
            return FloatCoefficients(
                None, None, None, None, saw_float=False, plain=False, affine=None
            )
        columns.append(col)
    if built:
        columns.extend(built)
    a, b, c, d = (col.values for col in columns)
    affine = None
    if built:
        affine = True  # c = 0, d = 1
    elif c is not None and d is not None:
        affine = bool((c == 0).all() and (d != 0).all())
    return FloatCoefficients(
        a,
        b,
        c,
        d,
        saw_float=any(col.has_float for col in columns),
        plain=True,
        affine=affine,
    )


@dataclass
class FloatScalars:
    """A recurrence's scalars as float64 columns (see
    :func:`_float_scalars`): its initial values -- a ``(m,)`` vector,
    or ``(k, m)`` stacked rows -- and its :class:`FloatCoefficients`."""

    initial: Optional[np.ndarray]
    coefficients: FloatCoefficients
    saw_float: bool
    #: every initial value (of every row) is exactly a Python ``float``
    only_float: bool

    @property
    def complete(self) -> bool:
        return self.initial is not None and self.coefficients.complete


def _float_scalars(
    rec: "RationalRecurrence", coefficients: Optional[FloatCoefficients] = None
) -> Optional[FloatScalars]:
    """Every scalar of ``rec`` as float64 columns, or ``None`` when one
    is not a plain int/float (exact types keep the object engine).
    ``coefficients`` is ``rec``'s coefficient half when already
    classified; only ``rec.initial`` is classified then."""
    if coefficients is None:
        coefficients = _float_coefficients(rec)
    col = _float_column(rec.initial) if coefficients.plain else None
    if col is None:
        return None
    return FloatScalars(
        col.values,
        coefficients,
        saw_float=coefficients.saw_float or col.has_float,
        only_float=col.only_float,
    )


def _floatable_scalars(scalars: Optional[FloatScalars]) -> bool:
    """True when every scalar is a plain int/float (safe to cast to
    float64) and at least one is a float (``scalars`` is
    :func:`_float_scalars`'s result).  All-int and exact-Fraction
    systems must keep the exact object engine."""
    return scalars is not None and scalars.saw_float


def _affine_shape(rec: "RationalRecurrence", coefficients: FloatCoefficients) -> bool:
    """``c = 0`` and ``d != 0`` everywhere: read from the classified
    columns, walking the Python lists only when a column has no
    float64 form."""
    if coefficients.affine is not None:
        return coefficients.affine
    return all(x == 0 for x in rec.c) and all(x != 0 for x in rec.d)


def _affine_fast_path_applicable(
    rec: "RationalRecurrence", scalars: Optional[FloatScalars]
) -> bool:
    """The vectorized affine engine applies when the recurrence is
    affine (``c = 0``, ``d != 0``) over float-castable scalars --
    exact types (Fraction, all-int data) must keep the object engine."""
    return _floatable_scalars(scalars) and _affine_shape(rec, scalars.coefficients)


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
