"""OrdinaryIR plans and value kernels.

:func:`build_plan` reads the index structure alone and materializes
one layout (see :mod:`repro.engine.plan`) by the rule chains ->
levels -> rounds: a chain layout when chain scans need fewer levels
than pointer jumping needs rounds, else a level layout when the
predecessor forest is at most 62 deep, else the round schedule.  The
kernels replay it over values -- :class:`NumpyChains` runs one
``ufunc.accumulate`` sweep per chain level, :class:`NumpyLevels` one
vector statement per dependence level in the admitted array, the round
kernels one gather + ``op`` + scatter per round.  Everything around
them (policy, spans, stats, verification, the scatter back to cells)
belongs to :mod:`repro.engine.driver`, which also admits the values
once through :func:`admit`.

A kernel is built from a :class:`~repro.engine.driver.Job` (applying
the terminals' first products), exposes ``steps`` (the rounds or
levels in the representation its :meth:`round` indexes with) and
returns its per-iteration values from ``solved()`` -- in the order of
its ``cells`` attribute when it has one.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Any, Optional, Sequence

import numpy as np

from ..core.traces import predecessors, writer_map
from ..errors import IRValidationError
from .plan import (
    OrdinaryPlan,
    build_chain_layout,
    build_forest_levels,
    build_round_schedule,
)

__all__ = [
    "admit",
    "build_plan",
    "build_plan_from_maps",
    "cells",
    "chains_apply",
    "chain_blocks",
    "chain_cells",
    "chain_order",
    "chain_steps",
    "may_wrap",
    "PythonRounds",
    "NumpyRounds",
    "NumpyChains",
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
    g: np.ndarray, f: np.ndarray, m: int, fingerprint: str
) -> OrdinaryPlan:
    """Plan validated index maps (distinct ``g`` in range) by the one
    layout rule of the ordinary and Moebius planners: the Lemma-1
    predecessor array, then chains when their runs need one level or
    fewer levels than pointer jumping needs rounds, else dependence
    levels when the forest is shallow (neither keeps ``pred``: a
    rounds consumer rebuilds it), else the full round schedule."""
    writer = writer_map(g, m)
    pred = predecessors(f, writer)
    chains = build_chain_layout(pred)
    levels = None if chains is not None else build_forest_levels(g, f, pred, writer)
    return OrdinaryPlan(
        fingerprint=fingerprint,
        n=int(g.shape[0]),
        m=m,
        g=g,
        f=f,
        pred=None if chains is not None or levels is not None else pred,
        steps=None if chains is not None or levels is not None
        else build_round_schedule(pred),
        chains=chains,
        levels=levels,
    )


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


def _strict_int64(values: list) -> Optional[np.ndarray]:
    """``values`` -- a list of integers, or of equal-length lists of them
    -- as a fresh int64 ``(m,)`` / ``(k, m)`` buffer, one strict C pass
    per row (``array('q')``: ``__index__`` values in int64 only), and
    from 2**53 on (where :func:`_admit_cast`'s float64 promotion of NumPy
    scalars beside Python ints stops being exact) exact ``int`` only;
    ``None`` for anything else, which then takes that route."""
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
    if out.size and max(int(out.max()), -int(out.min())) >= _FLOAT_EXACT:
        if any(list(map(type, row)).count(int) != m for row in rows):
            return None
    return out


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
    if type(values) is list and np.dtype(op.dtype) == np.int64:
        arr = _strict_int64(values)
        if arr is not None:
            return arr
    return _admit_cast(values, op)


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


def may_wrap(op, bound: int, typed, ftyped=None) -> bool:
    """Whether an integer ``add`` / ``multiply`` solve could leave its
    dtype: the typed kernels would wrap silently where the sequential
    loop computes exact Python ints.

    At most ``bound`` operands fold into any one result -- a
    value-independent bound, such as an ordinary plan's
    :attr:`~repro.engine.plan.OrdinaryPlan.trace_bound` -- so with
    ``t`` the largest magnitude among the admitted values a sum stays
    below ``t * bound`` and a product below ``t ** bound``.  One
    ``max`` / ``min`` reduction per admitted array.
    """
    if typed is None or typed.dtype.kind != "i" or typed.size == 0:
        return False
    add = op.vector_fn is np.add
    if not add and op.vector_fn is not np.multiply:
        return False
    top = 0
    for arr in (typed, ftyped):
        if arr is not None and arr.size:
            top = max(top, int(arr.max()), -int(arr.min()))
    limit = int(np.iinfo(typed.dtype).max) + 1
    if add:
        return top * bound >= limit
    return top >= 2 and (bound >= limit.bit_length() or top**bound >= limit)


def chains_apply(op, policy) -> bool:
    """Whether a chain kernel can run a solve on a chain plan: no round
    budget asks for pointer-jumping rounds, and the operator ``op`` is
    a typed ufunc (:class:`NumpyChains`: ``accumulate`` folds in loop
    order).  ``op`` is ``None`` for a kernel with its own arithmetic
    (the Moebius affine scan)."""
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
        sched = job.sched
        self.fn = fn = job.op.fn
        g, f = sched.g.tolist(), sched.f.tolist()
        init, finit = job.init, job.finit
        val = [init[g[i]] for i in range(sched.n)]
        for i in sched.terminal_idx.tolist():
            val[i] = fn(finit[f[i]], val[i])  # first product at the terminal
        self.val = val
        self.steps = sched.steps_py()

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
        op, sched = job.op, job.sched
        typed = op.vector_fn is not None and op.dtype is not None
        self.vec = vec = op.vector_fn if typed else np.frompyfunc(op.fn, 2, 1)
        init, finit = _inputs(job, typed)
        #: the typed input the driver scatters into (``None``: scatter
        #: onto the Python rows)
        self.base = init if typed else None
        self.ix = ix = cells(init.ndim)
        # ``[:, g]`` gathers come back column-major: copy a stack to
        # C order once so every round indexes contiguous rows
        val = np.ascontiguousarray(init[ix(sched.g)])
        t = sched.terminal_idx
        if t.size:
            val[ix(t)] = vec(finit[ix(sched.f[t])], val[ix(t)])
        self.val = val
        self.steps = sched.steps

    def round(self, active, src) -> None:
        val, ix = self.val, self.ix
        val[ix(active)] = self.vec(val[ix(src)], val[ix(active)])

    def solved(self):
        return self.val


def chain_blocks(sched: OrdinaryPlan):
    """Per level, the scan blocks of a chain plan -- one
    ``ufunc.accumulate`` each in :class:`NumpyChains`, one affine scan
    in the Moebius chain kernel (derived once per plan and cached on
    its layout).

    A level's segments are sorted by length; each power-of-two length
    class is one ``(segments, width)`` block over the contiguous slice
    ``[lo, hi)`` of chain order -- a reshaped view when its segments
    share one length, else an index gather padded with each segment's
    last position plus the mask of real entries.  A block's heads are
    seeded from the terminals' initial cells (level 0: the block ends
    with them) or from chain positions solved in earlier levels (the
    block ends with its slice of the layout's ``seeds``).
    """
    layout = sched.chains
    cache = layout._cache
    if "blocks" in cache:
        return cache["blocks"]
    offsets = layout.offsets
    lengths = np.diff(offsets)
    roots = int(layout.level_ptr[min(1, layout.levels)])
    seed_cells = sched.f[layout.heads[:roots]]
    blocks = []
    for level in range(layout.levels):
        s0, s1 = int(layout.level_ptr[level]), int(layout.level_ptr[level + 1])
        klass = lengths[s0:s1] - 1
        bounds = np.flatnonzero(np.diff(_bit_length(klass))) + 1
        level_blocks = []
        for a, b in zip(np.r_[0, bounds] + s0, np.r_[bounds, s1 - s0] + s0):
            lo, hi = int(offsets[a]), int(offsets[b])
            width = int(lengths[a:b].max())
            nseg = int(b - a)
            gather = keep = None
            if width * nseg != hi - lo:  # unequal lengths: pad
                lens = lengths[a:b]
                cols = np.arange(width, dtype=np.int64)
                gather = offsets[a:b, None] + np.minimum(cols, lens[:, None] - 1)
                keep = (cols < lens[:, None]).reshape(-1)
            seeds = seed_cells[a:b] if level == 0 else slice(a, b)
            level_blocks.append((lo, hi, nseg, width, gather, keep, seeds))
        blocks.append(level_blocks)
    cache["blocks"] = blocks
    return blocks


def _range_or(a: np.ndarray):
    """``slice(lo, hi)`` when ``a`` is ``lo, lo + 1, ..., hi - 1``, else ``a``."""
    lo = int(a[0]) if a.size else 0
    hi = lo + int(a.size)
    return slice(lo, hi) if np.array_equal(a, np.arange(lo, hi)) else a


def chain_order(sched: OrdinaryPlan):
    """The iterations in chain order: a ``slice`` when they are one
    index range, else the gather order; cached on the layout."""
    cache = sched.chains._cache
    if "order" not in cache:
        cache["order"] = _range_or(sched.chains.order)
    return cache["order"]


def chain_cells(sched: OrdinaryPlan):
    """The cells a chain plan writes, in chain order: a ``slice`` when
    they are one contiguous range (a kernel then scans the values where
    they lie), else ``g`` gathered; cached on the layout."""
    cache = sched.chains._cache
    if "cells" not in cache:
        order = cache.get("order")  # a gather order already built
        if not isinstance(order, np.ndarray):
            order = sched.chains.order
        cache["cells"] = _range_or(sched.g.take(order))
    return cache["cells"]


def chain_steps(sched: OrdinaryPlan):
    """A chain kernel's ``steps``: per level, the chain positions it
    solves and the level number its :meth:`round` takes."""
    offsets, level_ptr = sched.chains.offsets, sched.chains.level_ptr
    return [
        (range(int(offsets[level_ptr[lv]]), int(offsets[level_ptr[lv + 1]])), lv)
        for lv in range(sched.chains.levels)
    ]


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` of non-negative integers (exact
    below 2**53: ``frexp``'s exponent)."""
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


class NumpyChains:
    """Work-efficient kernel for chain plans: per level, seeds every
    segment head with ``op(seed, head)`` and runs
    ``op.vector_fn.accumulate`` along the last axis of each block.
    ``accumulate`` folds left to right, the sequential loop's own
    order, so results are the loop's bit for bit wherever
    ``vector_fn`` is the loop's ``fn`` (the add and multiply operators,
    floats included; MIN / MAX keep ``np.minimum`` / ``np.maximum``'s
    NaN and signed-zero rules).  A stacked ``(k, n)`` batch is a
    leading axis on every block.

    When chain order is one contiguous cell range
    (:func:`chain_cells`) the values are scanned where they lie,
    in the admitted array, and ``solved()`` is that view: the driver's
    scatter has nothing to move.  Otherwise they are gathered into
    chain order once.  Every level-0 seed is gathered before the first
    write, so a seed cell that a later segment writes still reads its
    initial value.
    """

    label = "numpy"

    def __init__(self, job):
        op, sched = job.op, job.sched
        self.vec = op.vector_fn
        init, finit = _inputs(job, True)
        self.base = init
        self.blocks = chain_blocks(sched)
        self.seeds0 = [finit[..., blk[-1]] for blk in self.blocks[0]]
        self.seed_pos = sched.chains.seeds
        #: the cells ``solved()`` lines up with (chain order)
        self.cells = chain_cells(sched)
        in_place = isinstance(self.cells, slice)
        #: root-span attributes: which I/O path ran
        self.attrs = {"in_place": in_place}
        if in_place:
            self.c = init[..., self.cells]  # a view: the scan writes init
        else:
            self.c = np.ascontiguousarray(init[..., self.cells])
        self.steps = chain_steps(sched)

    def round(self, _cells, level: int) -> None:
        c, vec = self.c, self.vec
        lead = c.shape[:-1]
        for b, (lo, hi, nseg, width, gather, keep, seeds) in enumerate(
            self.blocks[level]
        ):
            seed = self.seeds0[b] if level == 0 else c[..., self.seed_pos[seeds]]
            if gather is None:
                block = c[..., lo:hi].reshape(lead + (nseg, width))  # a view
            else:
                block = c[..., gather]
            block[..., 0] = vec(seed, block[..., 0])
            vec.accumulate(block, axis=-1, out=block)
            if gather is not None:
                c[..., lo:hi] = block.reshape(lead + (-1,))[..., keep]

    def solved(self):
        return self.c


def sweep_level(x: np.ndarray, layout, level: slice, fn, source=None) -> None:
    """One level of a :class:`~repro.engine.plan.LevelLayout`, in place:
    ``x[w] = fn(source[r], x[r_h or w])`` over the level's slots, every
    operand gathered before the level writes (``source`` defaults to
    ``x``).  Slots index the last axis, so a stacked ``(k, m)`` batch
    is a leading axis.  ``out=`` only for a ufunc: a modular
    operator's vector function is a plain function."""
    w = layout.write[level]
    value = (x if source is None else source).take(layout.read[level], axis=-1)
    h = w if layout.read_h is None else layout.read_h[level]
    if isinstance(fn, np.ufunc):
        fn(value, x.take(h, axis=-1), out=value)
    else:
        value = fn(value, x.take(h, axis=-1))
    x[w if x.ndim == 1 else (slice(None), w)] = value


class NumpyLevels:
    """Work-efficient kernel for level plans: one vector statement per
    dependence level, in cell space, on the admitted array --
    ``x[w] = op(x[r], x[w])`` over the level's write and read cells
    (:func:`sweep_level` over the plan's
    :class:`~repro.engine.plan.LevelLayout`).

    Each cell has one writer, so the only values a level reads are its
    predecessors' (final: an earlier level wrote them), an iteration's
    own initial ``g`` cell, and at level 0 the roots' ``f`` operands --
    from ``f_initial`` when given, else gathered before the statement
    writes, so a root still reads the initial value of a cell that
    another root writes.  Every result is the loop's own fold, bit for
    bit wherever ``vector_fn`` is the loop's ``fn`` (MIN / MAX keep
    ``np.minimum`` / ``np.maximum``'s NaN and signed-zero rules).  No
    gather into iteration order, no scatter back: ``solved()`` is the
    array itself.  A stacked ``(k, m)`` batch is a leading axis.
    """

    label = "numpy"
    #: root-span attributes: the values are swept where they lie
    attrs = {"in_place": True}
    #: ``solved()`` is the whole array, every cell in place
    cells = slice(None)

    def __init__(self, job):
        self.vec = job.op.vector_fn
        x, finit = _inputs(job, True)
        self.base = x
        self.layout = layout = job.sched.levels
        ptr = layout.level_ptr.tolist()
        if len(ptr) > 1:  # level 0: the roots' first products
            sweep_level(x, layout, slice(0, ptr[1]), self.vec, finit)
        self.steps = [
            (range(lo, hi), slice(lo, hi)) for lo, hi in zip(ptr[1:-1], ptr[2:])
        ]

    def round(self, _positions, level: slice) -> None:
        sweep_level(self.base, self.layout, level, self.vec)

    def solved(self):
        return self.base
