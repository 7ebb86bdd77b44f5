"""Indexed recurrence (IR) system descriptions.

The paper's object of study is the sequential loop

.. code-block:: none

    for i = 1..n:
        A[g(i)] := op(A[f(i)], A[h(i)])

over an initialized array ``A[1..m]``, where ``f, g, h`` map iteration
numbers to array cells and do not read ``A`` itself.  This module
provides the data model for such systems:

* :class:`OrdinaryIRSystem` -- the restricted class with ``h = g`` and
  ``g`` *distinct* (injective), solvable in ``O(log n)`` time with
  ``O(n)`` processors by the greedy trace-concatenation algorithm
  (:mod:`repro.core.ordinary`).
* :class:`GIRSystem` -- the general class with unrestricted ``f, g, h``
  solvable via path counting (:mod:`repro.core.gir`), requiring a
  commutative operator.

Index convention: the paper is 1-based; this library is 0-based
throughout.  Iterations are ``i = 0..n-1`` and cells ``0..m-1``.

All index maps are stored as NumPy ``int64`` arrays of length ``n``
(``g[i]`` is the cell assigned by iteration ``i``), which makes the
vectorized engines natural and keeps validation O(n).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import IRValidationError
from .operators import Operator

__all__ = [
    "IRClass",
    "IRValidationError",
    "IRSystemBase",
    "OrdinaryIRSystem",
    "GIRSystem",
    "as_index_array",
    "normalize_non_distinct",
    "NormalizedGIR",
]

IndexMapLike = Union[Sequence[int], np.ndarray, Callable[[int], int]]


class IRClass(enum.Enum):
    """Classification of a recurrence, used by the loop recognizer and
    the Livermore census (paper, section 1)."""

    NO_RECURRENCE = "no-recurrence"
    LINEAR = "linear-recurrence"
    ORDINARY_IR = "ordinary-ir"
    GIR = "general-ir"
    MOEBIUS_AFFINE = "moebius-affine"
    MOEBIUS_RATIONAL = "moebius-rational"
    UNSUPPORTED = "unsupported"

    def is_indexed(self) -> bool:
        """True when the recurrence is an indexed recurrence of any
        flavor (the paper counts Moebius-reducible loops as IR)."""
        return self in (
            IRClass.ORDINARY_IR,
            IRClass.GIR,
            IRClass.MOEBIUS_AFFINE,
            IRClass.MOEBIUS_RATIONAL,
        )


def as_index_array(
    index_map: IndexMapLike,
    n: int,
    *,
    name: str = "index map",
    m: Optional[int] = None,
) -> np.ndarray:
    """Materialize an index map into an ``int64`` array of length ``n``.

    Accepts a sequence, a NumPy array, or a callable ``i -> cell``
    evaluated on ``0..n-1`` (handy for affine maps like the paper's
    ``g(i) = 7(i-1) + j``).

    When ``m`` is given, the map's range is validated *eagerly* against
    the array domain ``[0, m)`` -- an out-of-range entry raises
    :class:`~repro.errors.IRValidationError` naming the offending
    iteration here, at construction time, instead of surfacing as a
    numpy ``IndexError`` deep inside a solver.
    """
    if callable(index_map):
        arr = np.fromiter((index_map(i) for i in range(n)), dtype=np.int64, count=n)
    else:
        arr = np.asarray(index_map, dtype=np.int64)
    if arr.shape != (n,):
        raise IRValidationError(
            f"{name} must have exactly n={n} entries, got shape {arr.shape}"
        )
    if m is not None:
        _check_domain(arr, m, name)
    return arr


def _check_domain(arr: np.ndarray, m: int, name: str) -> None:
    if arr.size and (arr.min() < 0 or arr.max() >= m):
        # The precondition prover owns the message and the structured
        # PRE002 payload; crash reports then carry the same finding the
        # static checker would emit.
        from ..check.preconditions import domain_finding

        finding = domain_finding(arr, m, name)
        raise IRValidationError(finding.message, findings=[finding])


def _distinct(arr: np.ndarray) -> bool:
    """True when no value repeats (a sort; NumPy 2's hash-based
    ``np.unique`` is an order of magnitude slower on int64 maps)."""
    s = np.sort(arr)
    return bool((s[1:] != s[:-1]).all())


@dataclass
class IRSystemBase:
    """Shared structure of Ordinary and General IR systems.

    Attributes
    ----------
    initial:
        The initial array ``A[0..m-1]`` (any element type compatible
        with ``op``).  Stored as a Python list to support arbitrary
        monoids (tuples, matrices, fractions); the vectorized engines
        convert to NumPy when ``op.dtype`` allows.
    g, f:
        Iteration-indexed cell maps (length ``n``).
    op:
        The binary :class:`~repro.core.operators.Operator`.
    """

    initial: List[Any]
    g: np.ndarray
    f: np.ndarray
    op: Operator

    @property
    def n(self) -> int:
        """Number of loop iterations."""
        return int(self.g.shape[0])

    @property
    def m(self) -> int:
        """Array size."""
        return len(self.initial)

    def validate(self) -> None:
        self.op.require_associative()
        if self.f.shape != self.g.shape:
            raise IRValidationError(
                f"f and g must have equal length, got {self.f.shape} vs {self.g.shape}"
            )
        _check_domain(self.g, self.m, "g")
        _check_domain(self.f, self.m, "f")


@dataclass
class OrdinaryIRSystem(IRSystemBase):
    """Ordinary IR: ``for i: A[g(i)] := op(A[f(i)], A[g(i)])``.

    Requirements (paper, section 2): ``op`` associative (commutativity
    NOT required) and ``g`` *distinct* -- each cell is assigned at most
    once, so every right-hand ``A[g(i)]`` reads the cell's initial
    value and the trace of each cell is a *list* (Lemma 1).
    """

    def __post_init__(self) -> None:
        self.g = np.asarray(self.g, dtype=np.int64)
        self.f = np.asarray(self.f, dtype=np.int64)

    @classmethod
    def build(
        cls,
        initial: Sequence[Any],
        g: IndexMapLike,
        f: IndexMapLike,
        op: Operator,
        *,
        n: Optional[int] = None,
        validate: bool = True,
    ) -> "OrdinaryIRSystem":
        """Construct and validate an Ordinary IR system.

        ``n`` defaults to ``len(g)`` when ``g`` is a sequence; it must
        be given when ``g`` is a callable.
        """
        if n is None:
            if callable(g):
                raise IRValidationError("n is required when g is a callable")
            n = len(g)  # type: ignore[arg-type]
        m = len(initial)
        sys_ = cls(
            initial=list(initial),
            g=as_index_array(g, n, name="g", m=m),
            f=as_index_array(f, n, name="f", m=m),
            op=op,
        )
        if validate:
            sys_.validate()
        return sys_

    def validate(self) -> None:
        super().validate()
        if not self.g_is_distinct():
            dup = self.first_duplicate_cell()
            its = np.nonzero(self.g == dup)[0][:2].tolist()
            raise IRValidationError(
                f"OrdinaryIR requires g to be distinct (injective); cell {dup} "
                f"is assigned by iterations {its[0]} and {its[1]}.  Use "
                "normalize_non_distinct() to rewrite the loop into a "
                "distinct-g GIR system."
            )

    def g_is_distinct(self) -> bool:
        """True when no cell is assigned by two different iterations."""
        return _distinct(self.g)

    def first_duplicate_cell(self) -> Optional[int]:
        """The first cell assigned more than once, or ``None``."""
        seen: set = set()
        for x in self.g.tolist():
            if x in seen:
                return x
            seen.add(x)
        return None

    def as_gir(self) -> "GIRSystem":
        """View this system as a GIR system with ``h = g``.

        Useful for exercising the general solver on ordinary inputs
        (tests do this to cross-check the two algorithms) -- note the
        general solver will then demand a commutative operator.
        """
        return GIRSystem(
            initial=list(self.initial),
            g=self.g.copy(),
            f=self.f.copy(),
            op=self.op,
            h=self.g.copy(),
        )


@dataclass
class GIRSystem(IRSystemBase):
    """General IR: ``for i: A[g(i)] := op(A[f(i)], A[h(i)])``.

    The trace of a cell is a binary tree (paper, Fig 4), hence the
    solver requires ``op`` commutative and uses atomic powers.  ``g``
    is still required to be distinct for the direct solver; systems
    with repeated assignments are first rewritten by
    :func:`normalize_non_distinct`.
    """

    h: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.g = np.asarray(self.g, dtype=np.int64)
        self.f = np.asarray(self.f, dtype=np.int64)
        if self.h is None:
            raise IRValidationError("GIRSystem requires an h index map")
        self.h = np.asarray(self.h, dtype=np.int64)

    @classmethod
    def build(
        cls,
        initial: Sequence[Any],
        g: IndexMapLike,
        f: IndexMapLike,
        h: IndexMapLike,
        op: Operator,
        *,
        n: Optional[int] = None,
        validate: bool = True,
    ) -> "GIRSystem":
        if n is None:
            if callable(g):
                raise IRValidationError("n is required when g is a callable")
            n = len(g)  # type: ignore[arg-type]
        m = len(initial)
        sys_ = cls(
            initial=list(initial),
            g=as_index_array(g, n, name="g", m=m),
            f=as_index_array(f, n, name="f", m=m),
            op=op,
            h=as_index_array(h, n, name="h", m=m),
        )
        if validate:
            sys_.validate()
        return sys_

    def validate(self) -> None:
        super().validate()
        if self.h.shape != self.g.shape:
            raise IRValidationError(
                f"h and g must have equal length, got {self.h.shape} vs {self.g.shape}"
            )
        _check_domain(self.h, self.m, "h")

    def g_is_distinct(self) -> bool:
        return _distinct(self.g)

    def is_ordinary_shaped(self) -> bool:
        """True when ``h = g`` pointwise, i.e. the system is in the
        OrdinaryIR syntactic shape (it still needs distinct ``g`` to
        qualify for the ordinary solver)."""
        return bool(np.array_equal(self.h, self.g))


# ---------------------------------------------------------------------------
# Non-distinct g: SSA-style renaming into a distinct-g GIR system
# ---------------------------------------------------------------------------


@dataclass
class NormalizedGIR:
    """Result of :func:`normalize_non_distinct`.

    Attributes
    ----------
    system:
        An equivalent GIR system whose ``g`` is distinct.  Its array
        has ``m + n`` cells: the original ``m`` cells (holding initial
        values, never reassigned) followed by one fresh *version* cell
        per iteration.
    final_cell_of:
        Maps each original cell ``x`` to the cell of ``system`` that
        holds its final value (``x`` itself when never assigned, else
        the version cell of the last iteration assigning ``x``).
    """

    system: GIRSystem
    final_cell_of: np.ndarray

    def project(self, solved: Sequence[Any]) -> List[Any]:
        """Project a solved renamed array back onto the original cells."""
        return [solved[int(c)] for c in self.final_cell_of]


def normalize_non_distinct(system: GIRSystem) -> NormalizedGIR:
    """Rewrite a GIR system with repeated assignments into an
    equivalent system with distinct ``g``.

    The conference paper defers non-distinct ``g`` to the full paper;
    the construction used here is single-assignment renaming: iteration
    ``i`` writes a fresh cell ``m + i``, and every read of cell ``x``
    at iteration ``i`` is redirected to the most recent version of
    ``x`` (the version cell of the last ``j < i`` with ``g(j) = x``,
    or the original cell ``x`` when there is none).  This is exactly
    the dependence structure the paper's dependence graph encodes, so
    the rewritten system has the same traces.
    """
    system.op.require_associative()
    n, m = system.n, system.m
    g, f, h = system.g.tolist(), system.f.tolist(), system.h.tolist()

    latest: Dict[int, int] = {}  # original cell -> current version cell
    new_g = np.empty(n, dtype=np.int64)
    new_f = np.empty(n, dtype=np.int64)
    new_h = np.empty(n, dtype=np.int64)
    for i in range(n):
        new_f[i] = latest.get(f[i], f[i])
        new_h[i] = latest.get(h[i], h[i])
        version = m + i
        new_g[i] = version
        latest[g[i]] = version

    # Version cells start from the op identity-free placeholder: they
    # are always written before read (new_f/new_h only reference
    # version cells of *earlier* iterations), so their initial value is
    # irrelevant; reuse the original cell's initial value for clarity.
    initial = list(system.initial) + [system.initial[g[i]] for i in range(n)]

    final_cell_of = np.arange(m, dtype=np.int64)
    for x, version in latest.items():
        final_cell_of[x] = version

    renamed = GIRSystem(
        initial=initial,
        g=new_g,
        f=new_f,
        op=system.op,
        h=new_h,
    )
    renamed.validate()
    return NormalizedGIR(system=renamed, final_cell_of=final_cell_of)
