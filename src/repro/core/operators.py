"""Operator algebra for indexed recurrence equations.

An indexed recurrence (IR) system ``A[g(i)] := op(A[f(i)], A[h(i)])``
is parameterized by a binary operator ``op``.  The paper places
different algebraic requirements on ``op`` depending on the IR class:

* **OrdinaryIR** (``h = g``, ``g`` injective) only requires
  *associativity* -- the pointer-jumping solver concatenates adjacent
  sub-traces and never reorders operands, so non-commutative monoids
  (e.g. sequence concatenation, function composition, the Moebius
  matrix operator) are supported.

* **General IR (GIR)** additionally requires *commutativity*, because
  the trace of a cell is a binary *tree* rather than a list and the
  solver is free to multiply operands from either end (paper, section
  4).  It also requires an *atomic power* operation ``power(x, k)``
  computing :math:`x^{k}` (the k-fold ``op``-product of ``x`` with
  itself) in O(1) charged cost, because GIR traces can contain a given
  initial value exponentially many times (the paper's
  ``A[i] := A[i-1] * A[i-2]`` example yields Fibonacci-sized powers).

This module defines the :class:`Operator` description record, a
registry of stock operators used throughout the library, tests and
benchmarks, and helpers to build modular-arithmetic operators whose
powers stay bounded (so that exponential path counts remain exactly
representable).
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "Operator",
    "OperatorError",
    "ADD",
    "MUL",
    "MIN",
    "MAX",
    "FLOAT_ADD",
    "FLOAT_MUL",
    "CONCAT",
    "modular_add",
    "modular_mul",
    "make_operator",
    "STOCK_OPERATORS",
]


class OperatorError(ValueError):
    """Raised when an operator does not satisfy the algebraic
    requirements of the solver it is handed to (e.g. a non-commutative
    operator passed to the GIR solver)."""


def _float_scale(x: float, k: int) -> float:
    """``k * x`` saturating to +/-inf like repeated float addition."""
    try:
        return x * k
    except OverflowError:
        return math.copysign(math.inf, x)


def _float_pow(x: float, k: int) -> float:
    """``x ** k`` saturating like repeated float multiplication
    (Python raises :class:`OverflowError` where the sequential loop
    would quietly reach ``inf``)."""
    try:
        return x**k
    except OverflowError:
        if abs(x) <= 1:
            return 0.0
        sign = -1.0 if (x < 0 and k % 2 == 1) else 1.0
        return sign * math.inf


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish inputs.

    The base set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is a
    proven witness set for every ``n < 3.3 * 10**24``, far beyond any
    modulus the engines accept for vectorized arithmetic.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: Largest modulus for which (m-1)*m and (m-1)**2 stay inside int64,
#: so the vectorized modular kernels are exact without promotion.
_VEC_MOD_MAX = 3037000499


class _ModAddFn:
    """Picklable ``(x + y) % m`` -- scalar and elementwise."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        self.modulus = modulus

    def __call__(self, x, y):
        return (x + y) % self.modulus


class _ModMulFn:
    """Picklable ``(x * y) % m`` -- scalar and elementwise."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        self.modulus = modulus

    def __call__(self, x, y):
        return (x * y) % self.modulus


class _ModAddPower:
    """Scalar atomic power of modular addition: ``(x * (k % m)) % m``."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        self.modulus = modulus

    def __call__(self, x: int, k: int) -> int:
        return (x * (k % self.modulus)) % self.modulus


class _ModMulPower:
    """Scalar atomic power of modular multiplication: ``pow(x, k, m)``."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        self.modulus = modulus

    def __call__(self, x: int, k: int) -> int:
        return pow(x, k, self.modulus)


class _VecModScale:
    """Vectorized modular-add power over int64 arrays.

    Exact as long as inputs are in ``[0, m)`` and exponents in
    ``[1, m]`` (the reduced range): the intermediate product is at most
    ``(m-1)*m < 2**63`` for every modulus up to ``_VEC_MOD_MAX``.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        self.modulus = modulus

    def domain_check(self, values) -> bool:
        return bool(((values >= 0) & (values < self.modulus)).all())

    def __call__(self, x, k):
        return (x * (k % self.modulus)) % self.modulus


class _VecModPow:
    """Vectorized modular exponentiation (binary square-and-multiply).

    Everything stays in int64: squares are bounded by ``(m-1)**2``
    which fits for ``m <= _VEC_MOD_MAX``; exponents are pre-reduced to
    ``[1, period]`` so at most ~32 rounds run.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        self.modulus = modulus

    def domain_check(self, values) -> bool:
        return bool(((values >= 0) & (values < self.modulus)).all())

    def __call__(self, x, k):
        m = self.modulus
        base = np.asarray(x, dtype=np.int64) % m
        exp = np.asarray(k, dtype=np.int64).copy()
        out = np.ones_like(base)
        while exp.any():
            odd = (exp & 1).astype(bool)
            out[odd] = (out[odd] * base[odd]) % m
            base = (base * base) % m
            exp >>= 1
        return out


def _idempotent_vector_power(x, k):
    """Vector power of an idempotent operator: ``x^k = x``."""
    return x


def _default_power(op: Callable[[Any, Any], Any]) -> Callable[[Any, int], Any]:
    """Build a power function by repeated squaring over ``op``.

    This is the generic fallback: O(log k) applications of ``op``.
    Stock numeric operators override it with a genuinely atomic
    implementation (``k*x`` for addition, ``x**k`` for multiplication)
    as the paper requires for GIR efficiency.
    """

    def power(x: Any, k: int) -> Any:
        if k <= 0:
            raise OperatorError("power exponent must be a positive integer")
        acc: Optional[Any] = None
        base = x
        while k:
            if k & 1:
                acc = base if acc is None else op(acc, base)
            base = op(base, base)
            k >>= 1
        return acc

    return power


@dataclass(frozen=True)
class Operator:
    """A binary operator together with its algebraic metadata.

    Attributes
    ----------
    name:
        Human-readable identifier used in reports and error messages.
    fn:
        The binary function ``(x, y) -> x (.) y``.
    associative:
        Must be ``True`` for any IR solver to apply.  Kept as a flag so
        the loop recognizer can reject non-associative user operators.
    commutative:
        Required by the GIR solver (tree-shaped traces).
    identity:
        Optional identity element.  When present, solvers may use it to
        initialize accumulators; it is never required by the paper's
        algorithms but simplifies vectorized implementations.
    power:
        Atomic exponentiation ``power(x, k) = x (.) x (.) ... (.) x``
        (k operands, k >= 1).  Charged as a single instruction by the
        PRAM cost model, mirroring the paper's assumption (section 4)
        that powers are atomic for GIR.
    cost:
        Instruction cost of one application of ``fn`` in "assembly
        units" for the SimParC-substitute cost model.
    dtype:
        Preferred NumPy dtype for the vectorized engine, or ``None``
        for object arrays.
    vector_fn:
        Optional NumPy ufunc-like elementwise implementation used by
        the vectorized solvers (``np.add`` for ``add`` etc.).  When
        ``None`` the engines fall back to an object-array loop, which
        keeps arbitrary monoids (tuples, 2x2 matrices) working.
    vector_power:
        Optional elementwise atomic power ``vector_power(x, k)`` over
        NumPy arrays, used by the batched GIR evaluator.  It may
        expose ``domain_check(values) -> bool`` to reject inputs outside
        its exact range (the engines then fall back to the scalar
        ``power`` loop).
    power_period:
        Optional period ``p`` such that ``power(x, k) == power(x, k')``
        whenever ``k ≡ k' (mod p)`` and both are >= 1.  GIR exponents
        (path counts) can be astronomically large; a period lets plans
        cache them reduced into int64 via ``((k - 1) % p) + 1``.
        Modular addition has period ``m``; modular multiplication has
        period ``m - 1`` when the modulus is prime (Fermat).
    """

    name: str
    fn: Callable[[Any, Any], Any]
    associative: bool = True
    commutative: bool = False
    identity: Any = None
    power: Callable[[Any, int], Any] = None  # type: ignore[assignment]
    cost: int = 1
    dtype: Optional[str] = None
    vector_fn: Optional[Callable[[Any, Any], Any]] = None
    vector_power: Optional[Callable[[Any, Any], Any]] = None
    power_period: Optional[int] = None

    def __post_init__(self) -> None:
        if self.power is None:
            object.__setattr__(self, "power", _default_power(self.fn))

    def __call__(self, x: Any, y: Any) -> Any:
        return self.fn(x, y)

    # -- algebraic requirement checks ------------------------------------

    def require_associative(self) -> None:
        if not self.associative:
            raise OperatorError(
                f"operator {self.name!r} is not associative; "
                "indexed-recurrence solvers require associativity"
            )

    def require_commutative(self) -> None:
        if not self.commutative:
            raise OperatorError(
                f"operator {self.name!r} is not commutative; the general "
                "IR (GIR) solver requires a commutative operator because "
                "traces are tree-shaped (paper, section 4)"
            )

    def check_associative_on(self, samples) -> bool:
        """Spot-check associativity on sample triples.

        Used by tests and by the loop recognizer when handed a
        user-supplied operator whose flags it does not trust.
        """
        for a in samples:
            for b in samples:
                for c in samples:
                    if self.fn(self.fn(a, b), c) != self.fn(a, self.fn(b, c)):
                        return False
        return True

    def check_commutative_on(self, samples) -> bool:
        """Spot-check commutativity on sample pairs."""
        for a in samples:
            for b in samples:
                if self.fn(a, b) != self.fn(b, a):
                    return False
        return True


def make_operator(
    name: str,
    fn: Callable[[Any, Any], Any],
    *,
    associative: bool = True,
    commutative: bool = False,
    identity: Any = None,
    power: Optional[Callable[[Any, int], Any]] = None,
    cost: int = 1,
    dtype: Optional[str] = None,
    vector_fn: Optional[Callable[[Any, Any], Any]] = None,
    vector_power: Optional[Callable[[Any, Any], Any]] = None,
    power_period: Optional[int] = None,
) -> Operator:
    """Convenience constructor mirroring :class:`Operator`."""
    return Operator(
        name=name,
        fn=fn,
        associative=associative,
        commutative=commutative,
        identity=identity,
        power=power,
        cost=cost,
        dtype=dtype,
        vector_fn=vector_fn,
        vector_power=vector_power,
        power_period=power_period,
    )


# ---------------------------------------------------------------------------
# Stock operators
# ---------------------------------------------------------------------------

ADD = Operator(
    name="add",
    fn=lambda x, y: x + y,
    associative=True,
    commutative=True,
    identity=0,
    power=lambda x, k: x * k,
    cost=1,
    dtype="int64",
    vector_fn=np.add,
)
"""Integer addition.  ``power(x, k) = k*x`` is the paper's canonical
example of solving an *additive* recurrence with an atomic
*multiplicative* power (it cites Kogge & Stone for the same trick)."""

MUL = Operator(
    name="mul",
    fn=lambda x, y: x * y,
    associative=True,
    commutative=True,
    identity=1,
    power=lambda x, k: x**k,
    cost=1,
    dtype="int64",
    vector_fn=np.multiply,
)
"""Integer multiplication with atomic power ``x**k``.  Use Python ints
(object dtype) when powers may exceed 64 bits."""

FLOAT_ADD = Operator(
    name="float_add",
    fn=lambda x, y: x + y,
    associative=True,
    commutative=True,
    identity=0.0,
    power=_float_scale,
    cost=1,
    dtype="float64",
    vector_fn=np.add,
)
"""Floating-point addition.  Associative only up to rounding; the
solvers treat it as associative and tests compare with tolerances."""

FLOAT_MUL = Operator(
    name="float_mul",
    fn=lambda x, y: x * y,
    associative=True,
    commutative=True,
    identity=1.0,
    power=_float_pow,
    cost=1,
    dtype="float64",
    vector_fn=np.multiply,
)

MIN = Operator(
    name="min",
    fn=lambda x, y: x if x <= y else y,
    associative=True,
    commutative=True,
    identity=math.inf,
    power=lambda x, k: x,  # idempotent: min(x, x, ..., x) = x
    cost=1,
    dtype="float64",
    vector_fn=np.minimum,
    vector_power=_idempotent_vector_power,
)
"""Minimum; idempotent, so ``power(x, k) = x``."""

MAX = Operator(
    name="max",
    fn=lambda x, y: x if x >= y else y,
    associative=True,
    commutative=True,
    identity=-math.inf,
    power=lambda x, k: x,
    cost=1,
    dtype="float64",
    vector_fn=np.maximum,
    vector_power=_idempotent_vector_power,
)
"""Maximum; idempotent, so ``power(x, k) = x``."""

CONCAT = Operator(
    name="concat",
    fn=lambda x, y: x + y,
    associative=True,
    commutative=False,
    identity=(),
    power=lambda x, k: x * k,
    cost=1,
    dtype=None,
)
"""Sequence (tuple/string) concatenation: the canonical associative,
*non-commutative* monoid.  Tests use it to prove the OrdinaryIR solver
preserves operand order exactly (the paper stresses that ``op`` need
not be commutative for OrdinaryIR)."""


def modular_add(modulus: int) -> Operator:
    """Addition modulo ``modulus``; powers reduce via ``(k % m) * x``.

    Modular operators keep GIR traces exactly representable even when
    path counts are astronomically large (Fibonacci-sized), because the
    *exponent* is reduced before the atomic power is taken.
    """
    if modulus <= 1:
        raise ValueError("modulus must be >= 2")

    vectorizable = modulus <= _VEC_MOD_MAX
    return Operator(
        name=f"add_mod_{modulus}",
        fn=_ModAddFn(modulus),
        associative=True,
        commutative=True,
        identity=0,
        power=_ModAddPower(modulus),
        cost=1,
        dtype="int64",
        vector_fn=_ModAddFn(modulus) if vectorizable else None,
        vector_power=_VecModScale(modulus) if vectorizable else None,
        # (k % m) * x == (k' % m) * x whenever k ≡ k' (mod m)
        power_period=modulus,
    )


def modular_mul(modulus: int) -> Operator:
    """Multiplication modulo ``modulus`` with ``pow(x, k, m)`` powers.

    ``pow`` with a modulus is a single Python builtin call -- an honest
    "atomic power" in the paper's sense.
    """
    if modulus <= 1:
        raise ValueError("modulus must be >= 2")

    vectorizable = modulus <= _VEC_MOD_MAX
    return Operator(
        name=f"mul_mod_{modulus}",
        fn=_ModMulFn(modulus),
        associative=True,
        commutative=True,
        identity=1,
        power=_ModMulPower(modulus),
        cost=1,
        dtype="int64",
        vector_fn=_ModMulFn(modulus) if vectorizable else None,
        vector_power=_VecModPow(modulus) if vectorizable else None,
        # Fermat: x^(m-1) ≡ 1 for prime m (and 0^k = 0 for every k >= 1),
        # so exponents reduce mod m-1.  Composite moduli get no period.
        power_period=modulus - 1 if _is_prime(modulus) else None,
    )


STOCK_OPERATORS = {
    op.name: op
    for op in (ADD, MUL, FLOAT_ADD, FLOAT_MUL, MIN, MAX, CONCAT)
}
"""Registry of the built-in operators, keyed by name."""
