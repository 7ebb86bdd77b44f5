"""Moebius plans and value kernels: one layout, several kernels.

Every numeric path replays the same plan -- an
:class:`~repro.engine.plan.OrdinaryPlan` of family ``moebius`` over
``(g, f)``, laid out by the ordinary planner's rule (chains -> levels
-> rounds).  The structure is independent of how the maps are
represented:

* ``object`` -- exact ``Mat2`` coefficient matrices composed by an
  ordinary round kernel under the ``odot`` operator
  (:func:`object_inputs` / :func:`evaluate_object` bracket it);
* ``affine`` -- the ``(a, b)`` maps of ``c = 0`` recurrences:
  :class:`AffineRounds` runs the pointer-jumping rounds (single
  vectors and stacked ``(k, n)`` batches alike);
* ``rational`` -- :class:`RationalRounds`, float ``(A, B, C, D)``;
* on a chain or level plan, :class:`AffineLevels` /
  :class:`RationalLevels` run its layout in cell space: the loop's own
  formula over each level's one-iteration segments, bit for bit the
  sequential loop's, and (affine only) an ``O(n)`` tiled scan along
  its runs.

The affine rounds and the run scan compose maps with one helper,
:func:`_compose`, which carries structural constness as its own mask.
Path selection (``auto``) and the guard mode are resolved by
:func:`resolve_mode`; the degradation ladder, policy, spans and
verification belong to :mod:`repro.engine.driver`.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple

import numpy as np

from ..core.equations import IRValidationError
from ..core.moebius import (
    FloatCoefficients,
    FloatScalars,
    Mat2,
    RationalRecurrence,
    _affine_fast_path_applicable,
    _affine_shape,
    _float_coefficients,
    _float_column,
    _float_scalars,
    _floatable_scalars,
)
from ..resilience.guard import NumericGuard, default_guard
from . import exec_ordinary
from .exec_ordinary import gather
from .plan import OrdinaryPlan

__all__ = [
    "PATHS",
    "resolve_path",
    "resolve_mode",
    "build_plan",
    "affine_coefficients",
    "scatter_base",
    "stack_affine",
    "AffineRounds",
    "AffineLevels",
    "RationalRounds",
    "RationalLevels",
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
    rec: RationalRecurrence,
    options: Mapping[str, Any],
    coefficients: Optional[FloatCoefficients] = None,
) -> Tuple[str, Optional[NumericGuard], Optional[FloatScalars]]:
    """Check ``rec``'s coefficients and resolve its ``(path, guard,
    scalars)``; the index maps are validated once per plan
    (:func:`build_plan`).

    ``scalars`` are the recurrence's float64 columns, classified once
    here for the path rules and the float kernels (``None`` when a
    scalar is not a plain int/float); ``coefficients`` is their
    coefficient half when already classified (a ``Session``'s), so
    only ``rec.initial`` is classified per solve.  ``guard="auto"``
    arms the default numeric guard only for ``auto`` solves:
    explicitly selected paths keep their bit-level behaviour
    unguarded.
    """
    rec.validate_coefficients()
    path = options.get("path", "auto")
    guard = options.get("guard", "auto")
    if isinstance(guard, str):
        if guard != "auto":
            raise ValueError(f"unknown guard mode {guard!r}")
        guard = default_guard() if path == "auto" else None
    scalars = (
        _float_scalars(rec, coefficients)
        if path in ("auto", "affine", "rational")
        else None
    )
    resolved = resolve_path(rec, path, scalars)
    if resolved not in PATHS[1:]:
        raise ValueError(f"unknown engine {resolved!r}")
    return resolved, guard, scalars


def build_plan(rec: RationalRecurrence, fingerprint: str) -> OrdinaryPlan:
    """Validate the index maps and plan their layout over ``(g, f)``
    by the ordinary planner's rule (a plan of family ``moebius``): the
    level kernels run a chain or level layout, and every kernel that
    runs rounds builds the round schedule from it on first use."""
    rec.validate_maps()
    return exec_ordinary.build_plan_from_maps(
        rec.g, rec.f, rec.m, fingerprint, family="moebius"
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


def _require_affine(coeffs: FloatCoefficients) -> None:
    """Refuse complete float columns that are not affine (``c = 0``,
    ``d != 0``) on the affine path."""
    if not coeffs.affine:
        if (coeffs.c != 0).any():
            raise IRValidationError(
                "the affine path requires c = 0 everywhere; use the "
                "rational or object path for rational recurrences"
            )
        raise ZeroDivisionError("affine normalization needs d != 0")


def _affine_base(
    rec: RationalRecurrence, scalars: Optional[FloatScalars] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized per-iteration ``(a, b)`` coefficients and the mask of
    structurally constant maps (``a`` exactly 0 before normalization),
    terminal fold **not** applied.  Checks the affine preconditions
    (``c = 0``, ``d != 0``).

    With complete float ``scalars`` this is array arithmetic --
    ``(S*c + a) / d`` and ``(S*d + b) / d`` under a self term, else
    ``a / d`` and ``b / d`` -- the same IEEE operations, in the same
    order, as the per-iteration ``Mat2`` walk it replaces (kept for
    exact and oversized scalars).
    """
    rec.validate_coefficients()
    if scalars is not None and scalars.complete:
        coeffs = scalars.coefficients
        _require_affine(coeffs)
        A, B, C, D = coeffs.a, coeffs.b, coeffs.c, coeffs.d
        if rec.self_term:
            S = scalars.initial[rec.g]
            A, B = S * C + A, S * D + B
        return A / D, B / D, A == 0
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
    const = np.empty(n, dtype=bool)
    for i in range(n):
        mat = rec.coefficient_matrix(i)
        a[i] = mat.a / mat.d
        b[i] = mat.b / mat.d
        const[i] = mat.a == 0
    return a, b, const


def affine_coefficients(
    rec: RationalRecurrence, sched: OrdinaryPlan, values=None, scalars=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The affine kernels' starting ``(a, b)`` and constness mask,
    terminal fold applied, plus the float64 initial values ``V`` they
    read.

    ``V`` is ``scalars.initial`` when classified, else ``values``
    (default ``rec.initial``) cast; a ``(k, m)`` stack of value rows
    yields ``b`` as ``(k, n)`` while ``a`` and the mask stay ``(n,)``
    -- they are row-independent (composition multiplies coefficients
    without touching values).
    """
    a, b, const = _affine_base(rec, scalars)
    if scalars is not None and scalars.initial is not None:
        V = scalars.initial
    else:
        V = np.asarray(rec.initial if values is None else values, dtype=np.float64)
    if V.ndim == 2:
        b = np.repeat(b[None, :], V.shape[0], axis=0)
    ix = exec_ordinary.cells(V.ndim)
    t = sched.terminal_idx
    # terminals absorb Const(S[f(i)]): (a, b) o (0, S) = (0, a*S + b)
    b[ix(t)] = _apply(a[t], b[ix(t)], const[t], V[ix(rec.f[t])])
    const[t] = True
    return a, b, const, V


def scatter_base(
    V: np.ndarray, scalars: Optional[FloatScalars]
) -> Optional[np.ndarray]:
    """``V`` -- the float64 initial values -- when the driver may
    scatter the solved cells into it: the classification found every
    initial value (of every row) a Python float, so each untouched
    cell comes back unchanged.  Otherwise ``None``, and the driver
    scatters onto the Python rows (ints, exact beyond 2**53, keep
    their type and value)."""
    return V if scalars is not None and scalars.only_float else None


def _apply(a, b, const, x):
    """The affine map ``(a, b)`` at ``x``: ``a*x + b``, or ``b`` where
    the map is structurally constant -- its exact zero absorbs even a
    non-finite ``x`` (the ``odot`` rule, kept out of IEEE's
    ``0 * inf = NaN``)."""
    return np.where(const, b, a * x + b)


def _compose(a2, b2, const2, a1, b1, const1):
    """``(a2, b2)`` after ``(a1, b1)``: ``(a2*a1, a2*b1 + b2)``, the
    outer map absorbing where it is constant.

    Constness is structural, carried as its own mask: a map is
    constant when an input coefficient was exactly 0 or a terminal was
    folded in, OR'ed along the composition.  The product of ``a`` may
    underflow to 0 without turning a map constant, so an underflowed
    coefficient never swallows an infinite operand; ``a`` of a
    constant map is never read."""
    return a2 * a1, _apply(a2, b2, const2, b1), const2 | const1


class AffineRounds:
    """Vectorized kernel for *affine* recurrences (``c = 0``): each
    round composes the newer ``(a, b)`` segment over the older one."""

    label = "affine"

    def __init__(self, job):
        rec = job.source
        self.steps = job.sched.round_steps(rec.g, rec.f)
        self.a, self.b, self.const, V = affine_coefficients(
            rec,
            job.sched,
            job.init if job.stacked else None,
            job.scalars,
        )
        #: the float64 initial values the driver scatters into, if exact
        self.base = scatter_base(V, job.scalars)
        self.ix = exec_ordinary.cells(self.b.ndim)

    def round(self, active, src) -> None:
        a, b, const, ix = self.a, self.b, self.const, self.ix
        # newer segment (active) composes over the older one (src)
        a[active], b[ix(active)], const[active] = _compose(
            a[active], b[ix(active)], const[active], a[src], b[ix(src)], const[src]
        )

    def solved(self):
        return self.b  # every completed map ends constant: value = b


#: Most positions per tile of :func:`_affine_scan`.
_TILE = 64


def _scan_tiles(a, b, const) -> None:
    """In place along axis -3: position ``j`` becomes the composition
    of positions ``j, j-1, ..., 0`` -- one vector step per position,
    across every tile at once."""
    for j in range(1, a.shape[-3]):
        a[..., j, :, :], b[..., j, :, :], const[..., j, :, :] = _compose(
            a[..., j, :, :],
            b[..., j, :, :],
            const[..., j, :, :],
            a[..., j - 1, :, :],
            b[..., j - 1, :, :],
            const[..., j - 1, :, :],
        )


def _tiles(x: np.ndarray, tiles: int, span: int, fill) -> np.ndarray:
    """``x``'s ``(..., segments, width)`` cut into ``tiles`` tiles of
    ``span`` positions (the last padded with ``fill``), position-major:
    ``(..., span, segments, tiles)``, one contiguous vector per
    position."""
    width = x.shape[-1]
    if width < tiles * span:
        padded = np.empty(x.shape[:-1] + (tiles * span,), dtype=x.dtype)
        padded[..., :width] = x
        padded[..., width:] = fill
        x = padded
    x = x.reshape(x.shape[:-1] + (tiles, span))
    return np.ascontiguousarray(np.moveaxis(x, -1, -3))


def _affine_scan(a, b, const) -> np.ndarray:
    """The values of affine chains laid along the last axis, whose
    position 0 is a constant map (a head with its seed composed in).

    ``a`` and ``const`` are ``(segments, width)``; ``b`` may carry
    leading batch axes.  ``O(width)`` work in two passes: the tiles'
    prefix compositions (:func:`_scan_tiles`), then each tile's carry
    -- the value its predecessor tile ends on, found by scanning the
    tiles' totals, one shorter chain per segment -- applied to every
    tile at once.  Overwrites its arguments.
    """
    width = a.shape[-1]
    tiles = -(-width // _TILE)
    span = -(-width // tiles)
    # identity maps pad the last tile
    a, b, const = (
        _tiles(a, tiles, span, 1.0),
        _tiles(b, tiles, span, 0.0),
        _tiles(const, tiles, span, False),
    )
    _scan_tiles(a, b, const)
    if tiles > 1:
        # copies: the apply below still reads the tiles' last positions
        ends = _affine_scan(
            a[..., -1, :, :].copy(),
            b[..., -1, :, :].copy(),
            const[..., -1, :, :].copy(),
        )
        # tile 0 is constant throughout (its position 0 is): its carry
        # is never read
        carry = np.zeros_like(ends)
        carry[..., 1:] = ends[..., :-1]
        b = _apply(a, b, const, carry[..., None, :, :])
    b = np.moveaxis(b, -3, -1)
    return b.reshape(b.shape[:-2] + (-1,))[..., :width]


def stack_affine(
    rec: RationalRecurrence,
    rows,
    coefficients: Optional[FloatCoefficients] = None,
) -> Optional[FloatScalars]:
    """The batch's scalars -- ``initial`` the ``(k, m)`` float64 rows --
    when the whole batch can run as one stacked affine sweep, else
    ``None``.

    It can when there is no self term (the self-term rewrite folds
    each row's initial values into the *coefficients*, so they stop
    being row-independent), the shape is affine (``c = 0``,
    ``d != 0``), and every scalar -- coefficients and all rows -- is a
    plain int/float with at least one genuine float (all-int /
    Fraction data keeps the exact per-row object engine, mirroring the
    single-solve ``auto`` rules).  ``coefficients`` is ``rec``'s
    classified coefficient half (a ``Session``'s); without it they are
    classified here.  Rows are classified once, by
    :func:`~repro.core.moebius._float_column`.
    """
    if rec.self_term:
        return None
    if coefficients is None:
        coefficients = _float_coefficients(rec)
    if not coefficients.plain or not _affine_shape(rec, coefficients):
        return None
    columns = []
    for row in rows:
        col = _float_column(row)
        if col is None:
            return None
        columns.append(col)
    saw_float = coefficients.saw_float or any(col.has_float for col in columns)
    if not saw_float:
        return None
    V = np.stack(
        [
            np.asarray(row, dtype=np.float64) if col.values is None else col.values
            for row, col in zip(rows, columns)
        ]
    )
    return FloatScalars(
        V,
        coefficients,
        saw_float=True,
        only_float=all(col.only_float for col in columns),
    )


# ---------------------------------------------------------------------------
# level plans: the loop's formula, one dependence level at a time
# ---------------------------------------------------------------------------


def _zmul(c, x):
    """Vectorized :func:`~repro.core.moebius._zmul`: ``c * x``, except
    that an exact zero absorbs a non-finite partner.  Only such a pair
    (or a NaN operand) makes the product NaN, so finite data costs one
    NaN test."""
    out = c * x
    nan = np.isnan(out)
    if nan.any():
        out = np.where(nan & (c == 0) & ~np.isfinite(x), c, out)
        out = np.where(nan & (x == 0) & ~np.isfinite(c), x, out)
    return out


class AffineLevels:
    """Layout kernel for Moebius chain and level plans, in cell space.
    Per level of the :class:`~repro.engine.plan.LevelLayout`, its
    one-iteration segments run the sequential loop's own statement --
    ``x[w] = (zmul(a, x[r]) + b) / (zmul(c, x[r]) + d)``, plus ``x[w]``
    under a self term -- so every value is the loop's, bit for bit
    (:func:`~repro.core.moebius.run_moebius_sequential`, whose
    ``_zmul`` structural zeros :func:`_zmul` mirrors).  Its runs
    (affine only) compose their normalized ``(a, b)`` maps along each
    block of :func:`~repro.engine.exec_ordinary.level_blocks`, every
    head over its seed, by :func:`_affine_scan`: ``O(n)`` work, results
    differing from the loop only by reassociation across tiles.

    It runs on the float64 initial values, which it may write (a copy
    when they are the caller's array), and reads each coefficient from
    the cell its iteration writes, so the coefficients move once, not
    per level.  Known-affine columns (``c = 0``, ``d != 0``: the
    denominator is exactly ``d``) skip the ``c`` / ``d`` gathers, and
    ``d = 1`` its exact division too.  A stacked ``(k, m)`` batch is a
    leading axis of the values.
    """

    label = "affine"

    def __init__(self, job):
        rec, sched, scalars = job.source, job.sched, job.scalars
        rec.validate_coefficients()
        coeffs = scalars.coefficients
        if self.label == "affine":
            _require_affine(coeffs)
        x = scalars.initial
        if isinstance(rec.initial, np.ndarray) and np.may_share_memory(
            x, rec.initial
        ):
            x = x.copy()
        self.layout = layout = sched.levels
        self.x, self.g = x, rec.g

        def on_cells(column):  # each iteration's coefficient at its g cell
            out = np.empty(sched.m, dtype=column.dtype)
            out[rec.g] = column
            return out

        self.blocks = exec_ordinary.level_blocks(layout)
        widths = {block[2] for level in self.blocks for block in level}
        self.c = self.d = None
        if 1 in widths:  # the loop's formula: the raw columns
            self.a, self.b = on_cells(coeffs.a), on_cells(coeffs.b)
            if not coeffs.affine:
                self.c, self.d = on_cells(coeffs.c), on_cells(coeffs.d)
            elif not (coeffs.d == 1).all():
                self.d = on_cells(coeffs.d)
        if max(widths, default=1) > 1:  # the runs: their normalized maps
            self.scan = tuple(map(on_cells, _affine_base(rec, scalars)))
        self.self_term = rec.self_term
        #: the float64 initial values the driver scatters into, if exact
        self.base = scatter_base(x, scalars)
        roots = int(layout.level_ptr[min(1, layout.levels)])
        self.seed0 = x.take(layout.read[:roots], axis=-1)  # before any write
        self.steps = exec_ordinary.layout_steps(layout, self)

    def round(self, _positions, level: int) -> None:
        x, read = self.x, self.layout.read
        for block in self.blocks[level]:
            a, b, width, cells = block[:4]
            xf = self.seed0[..., a:b] if level == 0 else x.take(read[a:b], axis=-1)
            if width > 1:
                self._scan(block, xf)
                continue
            value = _zmul(gather(self.a, cells), xf) + gather(self.b, cells)
            if self.c is not None:
                with np.errstate(divide="ignore"):  # a pole: inf, as the rounds give
                    value /= _zmul(gather(self.c, cells), xf) + gather(self.d, cells)
            elif self.d is not None:
                value /= gather(self.d, cells)
            if self.self_term:
                value = gather(x, cells) + value
            x[..., cells] = value

    def _scan(self, block, seed) -> None:
        """One block of runs: each head's map applied to its seed, then
        the tiled scan of the maps along every run."""
        _a, _b, width, cells, keep, dest = block
        x, (a, b, const) = self.x, self.scan
        lead, shape = x.shape[:-1], (seed.shape[-1], width)
        ba, bc = a[cells].reshape(shape), const[cells].reshape(shape)
        bb = np.empty(lead + shape)
        bb[...] = b[cells].reshape(shape)
        bb[..., 0] = _apply(ba[:, 0], bb[..., 0], bc[:, 0], seed)
        bc[:, 0] = True
        values = _affine_scan(ba, bb, bc).reshape(lead + (-1,))
        x[..., cells if dest is None else dest] = (
            values if keep is None else values[..., keep]
        )

    def solved(self) -> np.ndarray:
        return self.x[..., self.g]


class RationalLevels(AffineLevels):
    """:class:`AffineLevels` serving an ``auto`` solve of a rational
    recurrence (the same formula; ``c`` and ``d`` are read, and need
    not be affine)."""

    label = "rational"


# ---------------------------------------------------------------------------
# rational path
# ---------------------------------------------------------------------------


class RationalRounds:
    """Vectorized kernel for *rational* recurrences over floats: each
    round multiplies ``(A, B, C, D)`` matrices, a singular outer map
    absorbing (the ``odot`` rule, via the guard's tolerance when one
    is armed)."""

    label = "rational"

    def __init__(self, job):
        rec, sched, guard = job.source, job.sched, job.guard
        rec.validate_coefficients()
        self.steps = sched.round_steps(rec.g, rec.f)
        n = rec.n
        self.rec = rec
        self.singular = (
            guard.singular_mask
            if guard is not None
            else (lambda a, b, c, d: a * d - b * c == 0)
        )
        scalars = job.scalars
        if scalars is not None and scalars.complete:
            coeffs = scalars.coefficients
            A, B = coeffs.a.copy(), coeffs.b.copy()
            C, D = coeffs.c.copy(), coeffs.d.copy()
            if rec.self_term:  # [[S*c + a, S*d + b], [c, d]]
                S = scalars.initial[rec.g]
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
        s_f = V[rec.f[t]]
        keep = self.singular(A[t], B[t], C[t], D[t])
        new_b = np.where(keep, B[t], _zmul(A[t], s_f) + B[t])
        new_d = np.where(keep, D[t], _zmul(C[t], s_f) + D[t])
        new_a = np.where(keep, A[t], 0.0)
        new_c = np.where(keep, C[t], 0.0)
        A[t], B[t], C[t], D[t] = new_a, new_b, new_c, new_d
        self.abcd = A, B, C, D
        self.V = V
        #: the float64 initial values the driver scatters into, if exact
        self.base = scatter_base(V, scalars)

    def round(self, active, src) -> None:
        A, B, C, D = self.abcd
        ao, bo, co, do = A[active], B[active], C[active], D[active]
        ai, bi, ci, di = A[src], B[src], C[src], D[src]
        keep = self.singular(ao, bo, co, do)  # odot: singular outer absorbs
        A[active] = np.where(keep, ao, _zmul(ao, ai) + _zmul(bo, ci))
        B[active] = np.where(keep, bo, _zmul(ao, bi) + _zmul(bo, di))
        C[active] = np.where(keep, co, _zmul(co, ai) + _zmul(do, ci))
        D[active] = np.where(keep, do, _zmul(co, bi) + _zmul(do, di))

    def solved(self) -> np.ndarray:
        """Each composed map evaluated: ``b / d`` for a complete
        (constant) composition, else the rank-1 map at the paper's
        ``S[g(i)]`` argument."""
        A, B, C, D = self.abcd
        s = self.V[self.rec.g]
        const = (A == 0) & (C == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(const, B / D, (A * s + B) / (C * s + D))
