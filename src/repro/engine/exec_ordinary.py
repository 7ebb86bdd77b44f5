"""OrdinaryIR plans and value kernels.

:func:`build_plan` reads the index structure alone and materializes
one layout (see :mod:`repro.engine.plan`) by the rule chains ->
levels -> rounds: pred-linked runs when chain scans need fewer levels
than pointer jumping needs rounds, else one-iteration segments when
the predecessor forest is at most 62 deep -- both one
:class:`~repro.engine.plan.LevelLayout` over cells -- else the
predecessor array alone.  The kernels replay it over values -- :class:`NumpyLevels`
runs each level in the admitted array, a vector statement over its
one-iteration segments and ``ufunc.accumulate`` along its runs; the
round kernels one gather + ``op`` + scatter per round.  Everything around
them (policy, spans, stats, verification, the scatter back to cells)
belongs to :mod:`repro.engine.driver`, which also admits the values
once through :func:`admit`.

A kernel is built from a :class:`~repro.engine.driver.Job` (applying
the terminals' first products), exposes ``steps`` (the rounds or
levels in the representation its :meth:`round` indexes with) and
returns its per-iteration values from ``solved()`` -- in iteration
order, or the admitted array itself once solved in place.  The round
kernels read the iteration-order maps from the job's system, which no
plan holds, and take the round schedule -- no plan artifact -- from
:meth:`~repro.engine.plan.OrdinaryPlan.round_steps`.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..core.traces import predecessors, writer_map
from ..errors import IRValidationError
from .plan import OrdinaryPlan, _is_range, build_chain_layout, build_forest_levels

__all__ = [
    "admit",
    "admit_top",
    "build_plan",
    "build_plan_from_maps",
    "cells",
    "gather",
    "layout_applies",
    "level_blocks",
    "may_wrap",
    "PythonRounds",
    "NumpyRounds",
    "NumpyLevels",
    "sweep_level",
]

#: Magnitude from which float64 no longer holds every integer exactly
#: and int64 no longer holds the value at all.
_INT64_LIMIT = 2.0**63
#: float64 holds every integer below this exactly.
_FLOAT_EXACT = 2.0**53


def build_plan(system, fingerprint: str) -> OrdinaryPlan:
    """Validate the system and plan its layout
    (:func:`build_plan_from_maps`)."""
    system.validate()
    return build_plan_from_maps(system.g, system.f, system.m, fingerprint)


def build_plan_from_maps(
    g: np.ndarray, f: np.ndarray, m: int, fingerprint: str, family: str = "ordinary"
) -> OrdinaryPlan:
    """Plan validated index maps (distinct ``g`` in range) by the one
    layout rule of the ordinary and Moebius planners: the Lemma-1
    predecessor array, then chains when their runs need one level or
    fewer levels than pointer jumping needs rounds, else dependence
    levels when the forest is shallow (either way a layout alone: a
    rounds consumer rebuilds ``pred`` from the system's maps), else
    ``pred`` alone, the rounds following from it
    (:meth:`~repro.engine.plan.OrdinaryPlan.round_steps`).  No plan
    keeps the maps."""
    writer = writer_map(g, m)
    pred = predecessors(f, writer)
    levels = build_chain_layout(g, f, pred)
    if levels is None:
        levels = build_forest_levels(g, f, pred, writer)
    n = int(g.shape[0])
    if levels is not None:
        return OrdinaryPlan(fingerprint, n, m, levels=levels, family=family)
    return OrdinaryPlan(fingerprint, n, m, pred=pred, family=family)


def _lossy(values, bad: np.ndarray, op) -> IRValidationError:
    pos = np.unravel_index(int(np.argmax(bad)), bad.shape)
    where = ", ".join(str(int(p)) for p in pos)
    return IRValidationError(
        f"value {np.asarray(values, dtype=object)[pos]!r} at [{where}] has no "
        f"exact {op.dtype} form; the {op.name!r} operator is {op.dtype}-typed "
        "and would truncate or wrap it (use a float operator such as "
        "FLOAT_ADD for float data)"
    )


def _object_lossy(
    arr: np.ndarray, info: np.iinfo, admitted: Optional[list] = None
) -> np.ndarray:
    """Mask of object elements an integer operator cannot hold exactly:
    non-integral or non-finite floats, non-integral Fractions and ints
    outside ``info``'s range (other types are the operator's business).
    Given the ``admitted`` float values of the same elements, also
    those whose exact value the float does not equal."""
    flat = arr.reshape(-1)
    bad = np.zeros(flat.shape, dtype=bool)
    lo, hi = int(info.min), int(info.max)
    for k, x in enumerate(flat.tolist()):
        if isinstance(x, (float, np.floating)):
            x = float(x)
            x = int(x) if np.isfinite(x) and x.is_integer() else None
        elif isinstance(x, Fraction):
            x = x.numerator if x.denominator == 1 else None
        elif not isinstance(x, (int, np.integer)):
            continue
        bad[k] = (
            x is None
            or not lo <= int(x) <= hi
            or (admitted is not None and int(x) != admitted[k])
        )
    return bad.reshape(arr.shape)


def magnitude(arr: np.ndarray) -> int:
    """The largest ``|value|`` of an integer array (0 when empty): one
    ``max`` and one ``min`` reduction."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _strict_int64(values: list) -> Optional[Tuple[np.ndarray, int]]:
    """``values`` -- a list of integers, or of equal-length lists of them
    -- as a fresh int64 ``(m,)`` / ``(k, m)`` buffer and its
    :func:`magnitude`, one strict C pass per row (``array('q')``:
    ``__index__`` values in int64 only), and from 2**53 on (where
    :func:`_admit_cast`'s float64 promotion of NumPy scalars beside
    Python ints stops being exact) exact ``int`` only; ``None`` for
    anything else, which then takes that route."""
    stacked = bool(values) and type(values[0]) is list
    rows = values if stacked else [values]
    m = len(rows[0])
    if not all(type(row) is list and len(row) == m for row in rows):
        return None
    out = np.empty((len(rows), m) if stacked else m, dtype=np.int64)
    try:
        for dst, row in zip(out.reshape(len(rows), m), rows):
            dst[:] = np.frombuffer(array("q", row), np.int64)
    except (TypeError, OverflowError):
        return None
    top = magnitude(out)
    if top >= _FLOAT_EXACT:
        if any(list(map(type, row)).count(int) != m for row in rows):
            return None
    return out, top


def admit_top(values: Any, op) -> Tuple[Optional[np.ndarray], Optional[int]]:
    """:func:`admit`, and the admitted array's :func:`magnitude` when the
    strict int64 pass measured it (``None`` otherwise) -- handed to
    :func:`may_wrap`, so the array is reduced once."""
    if type(values) is list and np.dtype(op.dtype) == np.int64:
        admitted = _strict_int64(values)
        if admitted is not None:
            return admitted
    return _admit_cast(values, op), None


def admit(values: Any, op) -> Optional[np.ndarray]:
    """Admit ``values`` (a vector, or ``k`` stacked rows) for the typed
    operator ``op``: a fresh ``op.dtype`` array the NumPy kernels run
    on, and may write into -- the caller's values, an array included,
    are never written to -- or ``None`` when the values have no typed
    form (tuples, ragged rows, ...) and keep their Python
    representation.

    An int64 operator takes a list (or list of equal-length rows) of
    integers in one strict C pass per row (:func:`_strict_int64`);
    anything else, or anything that pass refuses, takes
    :func:`_admit_cast`.
    """
    return admit_top(values, op)[0]


def _admit_cast(values: Any, op) -> Optional[np.ndarray]:
    """:func:`admit`'s general route: ``np.array``, then a checked
    cast.  A value an integer operator cannot hold exactly --
    non-integral, non-finite, or outside the dtype's range -- raises
    :class:`~repro.errors.IRValidationError` (exit code 3) instead of
    being truncated or wrapped by the cast.  Integer and float input
    costs one dtype test (plus a range test for other integer dtypes);
    only object input is checked element by element.
    """
    dtype = np.dtype(op.dtype)
    try:
        arr = np.array(values)
    except (ValueError, TypeError, OverflowError):
        return None  # ragged rows: not an array of scalars
    if arr.dtype == dtype:
        return arr
    kind = arr.dtype.kind
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        if kind == "f":
            with np.errstate(invalid="ignore"):
                bad = ~(np.isfinite(arr) & (np.trunc(arr) == arr))
                bad |= np.abs(arr) >= _INT64_LIMIT
                big = ~bad & (np.abs(arr) >= _FLOAT_EXACT)
            if big.any() and not isinstance(values, np.ndarray):
                # np.array may have promoted exact ints (np.uint64 beside
                # Python ints) to float64 and rounded them: re-check
                # those elements against their exact values.
                exact = np.array(values, dtype=object)[big]
                bad[big] = _object_lossy(exact, info, arr[big].tolist())
            if bad.any():
                raise _lossy(values, bad, op)
        elif kind == "c":
            raise _lossy(values, np.ones(arr.shape, dtype=bool), op)
        elif kind == "O":
            bad = _object_lossy(arr, info)
            if bad.any():
                raise _lossy(values, bad, op)
        elif kind in "iu" and arr.size:
            bad = (arr < info.min) | (arr > info.max)
            if bad.any():
                raise _lossy(values, bad, op)
        elif kind not in "iub":
            return None
    elif kind not in "iubf":
        return None
    try:
        return arr.astype(dtype)
    except (ValueError, TypeError, OverflowError):
        return None


def may_wrap(op, bound: int, typed, ftyped=None, top: Optional[int] = None) -> bool:
    """Whether an integer ``add`` / ``multiply`` solve could leave its
    dtype: the typed kernels would wrap silently where the sequential
    loop computes exact Python ints.

    At most ``bound`` operands fold into any one result -- a
    value-independent bound, such as an ordinary plan's
    :attr:`~repro.engine.plan.OrdinaryPlan.trace_bound` -- so with
    ``t`` the largest magnitude among the admitted values a sum stays
    below ``t * bound`` and a product below ``t ** bound``.  ``top`` is
    ``t`` when admission measured it (:func:`admit_top`); else one
    ``max`` / ``min`` reduction per admitted array.
    """
    if typed is None or typed.dtype.kind != "i" or typed.size == 0:
        return False
    add = op.vector_fn is np.add
    if not add and op.vector_fn is not np.multiply:
        return False
    if top is None:
        top = max(magnitude(arr) for arr in (typed, ftyped) if arr is not None)
    limit = int(np.iinfo(typed.dtype).max) + 1
    if add:
        return top * bound >= limit
    return top >= 2 and (bound >= limit.bit_length() or top**bound >= limit)


def layout_applies(op, policy) -> bool:
    """Whether a layout kernel can run a solve on a chain or level
    plan: no round budget asks for pointer-jumping rounds, and the
    operator ``op`` is a typed ufunc (:class:`NumpyLevels`: its sweeps
    and ``accumulate`` fold in loop order).  ``op`` is ``None`` for a
    kernel with its own arithmetic (the Moebius level kernels)."""
    return (
        op is None or (isinstance(op.vector_fn, np.ufunc) and op.dtype is not None)
    ) and (policy is None or policy.max_rounds is None)


class PythonRounds:
    """Pure-Python reference kernel: double-buffers every round (reads
    only the previous round's values), the synchronous PRAM semantics
    of the paper's algorithm."""

    label = "python"
    #: root-span attributes: the values are never scanned in place
    attrs = {"in_place": False}

    def __init__(self, job):
        sched, system = job.sched, job.source
        steps = sched.round_steps(system.g, system.f)
        self.fn = fn = job.op.fn
        g, f = system.g.tolist(), system.f.tolist()
        init, finit = job.init, job.finit
        val = [init[g[i]] for i in range(sched.n)]
        for i in sched.terminal_idx.tolist():
            val[i] = fn(finit[f[i]], val[i])  # first product at the terminal
        self.val = val
        self.steps = [(active.tolist(), src.tolist()) for active, src in steps]

    def round(self, active, src) -> None:
        fn, val = self.fn, self.val
        new_val = list(val)
        for i, p in zip(active, src):
            new_val[i] = fn(val[p], val[i])
        self.val = new_val

    def solved(self):
        return self.val


def cells(ndim: int):
    """Index the cell axis -- plain 1-D indexing for one value vector,
    ``[:, idx]`` for a stacked ``(k, n)`` batch.  Chosen once per solve
    from the values' ``ndim``, never per round."""
    if ndim == 1:
        return lambda idx: idx
    return lambda idx: (slice(None), idx)


def _to_array(values: Sequence[Any], op, typed: bool, stacked: bool) -> np.ndarray:
    if typed:
        return np.array(values, dtype=op.dtype)  # fresh: kernels write into it
    if stacked:
        return np.stack([_to_array(row, op, False, False) for row in values])
    arr = np.empty(len(values), dtype=object)
    for idx, v in enumerate(values):  # element-wise: may hold sequences
        arr[idx] = v
    return arr


def _inputs(job, typed: bool):
    """``(init, finit)`` arrays: the driver's admitted typed arrays when
    it has them, else converted here -- fresh arrays either way, so a
    kernel may scan or scatter in ``init``."""
    op = job.op
    init = job.typed if typed and job.typed is not None else None
    if init is None:
        init = _to_array(job.init, op, typed, job.stacked)
    if job.finit is job.init:
        return init, init
    finit = job.ftyped if typed and job.ftyped is not None else None
    if finit is None:
        finit = _to_array(job.finit, op, typed, job.stacked)
    return init, finit


class NumpyRounds:
    """Vectorized kernel: typed ``vector_fn`` fast path, object-dtype
    ``frompyfunc`` otherwise.  A stacked batch (``job.stacked``) runs
    as one ``(k, n)`` array through the same rounds."""

    label = "numpy"
    #: root-span attributes: the rounds run on a gathered copy
    attrs = {"in_place": False}

    def __init__(self, job):
        op, sched, system = job.op, job.sched, job.source
        self.steps = sched.round_steps(system.g, system.f)
        typed = op.vector_fn is not None and op.dtype is not None
        self.vec = vec = op.vector_fn if typed else np.frompyfunc(op.fn, 2, 1)
        init, finit = _inputs(job, typed)
        #: the typed input the driver scatters into (``None``: scatter
        #: onto the Python rows)
        self.base = init if typed else None
        self.ix = ix = cells(init.ndim)
        # ``[:, g]`` gathers come back column-major: copy a stack to
        # C order once so every round indexes contiguous rows
        val = np.ascontiguousarray(init[ix(system.g)])
        t = sched.terminal_idx
        if t.size:
            val[ix(t)] = vec(finit[ix(system.f[t])], val[ix(t)])
        self.val = val

    def round(self, active, src) -> None:
        val, ix = self.val, self.ix
        val[ix(active)] = self.vec(val[ix(src)], val[ix(active)])

    def solved(self):
        return self.val


def _range_or(a):
    """``slice(lo, hi)`` when ``a`` is ``lo, lo + 1, ..., hi - 1`` (or
    already that slice), else ``a``."""
    if isinstance(a, slice) or not _is_range(a):
        return a
    lo = int(a[0]) if a.size else 0
    return slice(lo, lo + int(a.size))


def gather(x: np.ndarray, slots) -> np.ndarray:
    """``x``'s values at ``slots`` on its last axis: a view for a
    ``slice`` (a one-range layout's), else ``take``."""
    if isinstance(slots, slice):
        return x[..., slots]
    return x.take(slots, axis=-1)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` of non-negative integers (exact
    below 2**53: ``frexp``'s exponent)."""
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


def level_blocks(layout):
    """Per level, the blocks a layout kernel folds -- derived once per
    layout and cached on it (``layout.cache``).

    A block is ``(a, b, width, cells, keep, dest)``: segments ``a:b``,
    whose heads seed from ``layout.read[a:b]``.  A level of one-iteration segments
    is one block of ``width`` 1 (one vector statement).  Longer
    segments, sorted by length within their level, form one
    ``(segments, width)`` block per power-of-two length class:
    ``cells`` is a ``slice`` when they share one length and their cells
    are one ascending range (the block is a reshaped view of the
    values), else the cells to gather -- padded with each segment's
    last cell when lengths differ, ``keep`` then masking the real
    entries -- and ``dest`` the cells the scanned block scatters to.
    A one-range layout's cells are slices throughout (``width`` 1
    included: :func:`gather` reads them), so no block holds ``O(n)``
    cells it could name by their bounds.
    """
    cache = layout.cache
    if "blocks" in cache:
        return cache["blocks"]
    written, offsets, ptr = layout.written, layout.offsets, layout.level_ptr.tolist()
    blocks = []
    for s0, s1 in zip(ptr[:-1], ptr[1:]):
        if offsets is None or s0 == s1:
            blocks.append([(s0, s1, 1, written(s0, s1), None, None)])
            continue
        lengths = np.diff(offsets[s0 : s1 + 1])
        bounds = np.flatnonzero(np.diff(_bit_length(lengths - 1))) + 1
        level = []
        for a, b in zip(np.r_[0, bounds] + s0, np.r_[bounds, s1 - s0] + s0):
            a, b = int(a), int(b)
            lo, hi = int(offsets[a]), int(offsets[b])
            lens = lengths[a - s0 : b - s0]
            width = int(lens.max())
            dest = _range_or(written(lo, hi))
            cells, keep = dest, None
            if width * (b - a) != hi - lo:  # unequal lengths: pad
                cols = np.arange(width, dtype=np.int64)
                pos = offsets[a:b, None] + np.minimum(cols, lens[:, None] - 1)
                if layout.start is None:
                    cells = layout.write.take(pos).reshape(-1)
                else:
                    cells = (pos + layout.start).reshape(-1)
                keep = (cols < lens[:, None]).reshape(-1)
            elif isinstance(cells, slice):
                dest = None  # a view: scanned in place
            level.append((a, b, width, cells, keep, dest))
        blocks.append(level)
    cache["blocks"] = blocks
    cache["in_place"] = offsets is None or isinstance(
        _range_or(written(0, layout.size)), slice
    )
    return blocks


def fold_block(x: np.ndarray, block, seed: np.ndarray, fn) -> None:
    """One block of :func:`level_blocks`, in place on the cell axis of
    ``x`` (a stacked ``(k, m)`` batch is a leading axis): every head
    folds its ``seed`` -- a fresh array, gathered before the level
    writes -- over its own cell, then each later member its
    predecessor's value over its own (``fn.accumulate``, a left fold:
    the loop's operand order)."""
    _a, _b, width, cells, keep, dest = block
    if width == 1:
        fn(seed, x[..., cells], out=seed)
        x[..., cells] = seed
        return
    lead = x.shape[:-1]
    block = x[..., cells].reshape(lead + (seed.shape[-1], width))
    block[..., 0] = fn(seed, block[..., 0])
    fn.accumulate(block, axis=-1, out=block)
    if dest is not None:
        block = block.reshape(lead + (-1,))
        x[..., dest] = block if keep is None else block[..., keep]


def sweep_level(x: np.ndarray, layout, level: slice, fn, source=None) -> None:
    """One level of a :class:`~repro.engine.plan.LevelLayout` of
    one-iteration segments, in place: ``x[w] = fn(source[r], x[r_h or
    w])`` over the level's slots, every operand gathered before the
    level writes (``source`` defaults to ``x``).  Slots index the last
    axis, so a stacked ``(k, m)`` batch is a leading axis.  ``out=``
    only for a ufunc: a modular operator's vector function is a plain
    function."""
    w = layout.written(level.start, level.stop)
    value = (x if source is None else source).take(layout.read[level], axis=-1)
    h = w if layout.read_h is None else layout.read_h[level]
    if isinstance(fn, np.ufunc):
        fn(value, gather(x, h), out=value)
    else:
        value = fn(value, gather(x, h))
    x[w if x.ndim == 1 else (slice(None), w)] = value


def layout_steps(layout, kernel):
    """A layout kernel's ``steps`` -- per level its positions and the
    level number its ``round`` takes -- after running the levels that
    are no pointer-jumping round: level 0 of one-iteration segments,
    the roots' first products (the solve's ``init_ops``).  Every level
    of runs is a round."""
    ptr = layout.level_ptr.tolist()
    if layout.offsets is not None:  # segment -> position
        ptr = layout.offsets[ptr].tolist()
    first = int(layout.offsets is None and len(ptr) > 1)
    for level in range(first):
        kernel.round(None, level)
    return [(range(lo, hi), lv) for lv, (lo, hi) in enumerate(zip(ptr, ptr[1:])) if lv >= first]


class NumpyLevels:
    """Work-efficient kernel for chain and level plans: per level of
    the plan's :class:`~repro.engine.plan.LevelLayout`, in cell space,
    in the admitted array -- one vector statement ``x[w] = op(x[r],
    x[w])`` over its one-iteration segments and one
    ``op.vector_fn.accumulate`` along each block of its runs
    (:func:`fold_block` over :func:`level_blocks`).

    Each cell has one writer, so the only values a level reads are
    those earlier levels finished, an iteration's own initial ``g``
    cell, and at level 0 the roots' ``f`` operands -- from
    ``f_initial`` when given, else gathered before the level writes,
    so a root still reads the initial value of a cell that another
    root writes.  Every result is the loop's own fold, bit for bit
    wherever ``vector_fn`` is the loop's ``fn`` (the add and multiply
    operators, floats included; MIN / MAX keep ``np.minimum`` /
    ``np.maximum``'s NaN and signed-zero rules).  No gather into
    iteration order, no scatter back: ``solved()`` is the array itself.
    """

    label = "numpy"

    def __init__(self, job):
        self.vec = job.op.vector_fn
        x, finit = _inputs(job, True)
        self.base = x
        self.layout = layout = job.sched.levels
        self.blocks = level_blocks(layout)
        #: root-span attributes: whether the runs' cells are one range
        self.attrs = {"in_place": layout.cache["in_place"]}
        roots = int(layout.level_ptr[min(1, layout.levels)])
        self.seed0 = finit.take(layout.read[:roots], axis=-1)
        self.steps = layout_steps(layout, self)

    def round(self, _positions, level: int) -> None:
        x, read = self.base, self.layout.read
        for block in self.blocks[level]:
            a, b = block[0], block[1]
            seed = self.seed0[..., a:b] if level == 0 else x.take(read[a:b], axis=-1)
            fold_block(x, block, seed, self.vec)

    def solved(self):
        return self.base
