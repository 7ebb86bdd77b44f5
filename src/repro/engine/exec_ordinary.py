"""OrdinaryIR plans and value kernels.

:func:`build_plan` reads the index structure alone and materializes
one layout (see :mod:`repro.engine.plan`): a chain layout when chain
scans need fewer levels than pointer jumping needs rounds, else the
round schedule.  The kernels replay it over values --
:class:`NumpyChains` runs one ``ufunc.accumulate`` sweep per chain
level, the round kernels one gather + ``op`` + scatter per round.
Everything around them (policy, spans, stats, verification, the
scatter back to cells) belongs to :mod:`repro.engine.driver`, which
also admits the values once through :func:`admit`.

A kernel is built from a :class:`~repro.engine.driver.Job` (applying
the terminals' first products), exposes ``steps`` (the rounds or
levels in the representation its :meth:`round` indexes with) and
returns its per-iteration values from ``solved()`` -- in the order of
its ``cells`` attribute when it has one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional, Sequence

import numpy as np

from ..core.traces import predecessor_array, writer_map
from ..errors import IRValidationError
from .plan import OrdinaryPlan, build_chain_layout, build_round_schedule

__all__ = [
    "admit",
    "build_plan",
    "build_plan_from_maps",
    "cells",
    "chains_apply",
    "may_wrap",
    "PythonRounds",
    "NumpyRounds",
    "NumpyChains",
]

#: Magnitude from which float64 no longer holds every integer exactly
#: and int64 no longer holds the value at all.
_INT64_LIMIT = 2.0**63


def build_plan(system, fingerprint: str) -> OrdinaryPlan:
    """Validate the system and plan its layout: chains when they need
    fewer levels than pointer jumping needs rounds, else the full
    round schedule."""
    system.validate()
    pred = predecessor_array(system)
    chains = build_chain_layout(pred)
    return OrdinaryPlan(
        fingerprint=fingerprint,
        n=system.n,
        m=system.m,
        g=system.g,
        f=system.f,
        pred=pred,
        steps=None if chains is not None else build_round_schedule(pred),
        chains=chains,
    )


def build_plan_from_maps(
    g: np.ndarray, f: np.ndarray, m: int, fingerprint: str
) -> OrdinaryPlan:
    """Plan the round schedule directly from index maps (caller
    guarantees distinct ``g`` in range -- e.g. a validated Moebius
    recurrence, whose matrix kernels always run rounds)."""
    n = int(g.shape[0])
    cand = writer_map(g, m)[f]
    pred = np.where(cand < np.arange(n, dtype=np.int64), cand, -1)
    return OrdinaryPlan(
        fingerprint=fingerprint,
        n=n,
        m=m,
        g=g,
        f=f,
        pred=pred,
        steps=build_round_schedule(pred),
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


def _object_lossy(arr: np.ndarray, info: np.iinfo) -> np.ndarray:
    """Mask of object elements an integer operator cannot hold exactly:
    non-integral or non-finite floats, non-integral Fractions and ints
    outside ``info``'s range (other types are the operator's business)."""
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
        bad[k] = x is None or not lo <= int(x) <= hi
    return bad.reshape(arr.shape)


def admit(values: Any, op) -> Optional[np.ndarray]:
    """Admit ``values`` (a vector, or ``k`` stacked rows) for the typed
    operator ``op``: the ``op.dtype`` array the NumPy kernels run on,
    or ``None`` when the values have no typed form (tuples, ragged
    rows, ...) and keep their Python representation.

    A value an integer operator cannot hold exactly -- non-integral,
    non-finite, or outside the dtype's range -- raises
    :class:`~repro.errors.IRValidationError` (exit code 3) instead of
    being truncated or wrapped by the cast.  Integer and float input
    costs one dtype test (plus a range test for other integer dtypes);
    only object input is checked element by element.
    """
    dtype = np.dtype(op.dtype)
    try:
        arr = np.asarray(values)
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


def may_wrap(op, plan: OrdinaryPlan, typed, ftyped) -> bool:
    """Whether an integer ``add`` / ``multiply`` solve could leave its
    dtype: the typed kernels would wrap silently where the sequential
    loop computes exact Python ints.

    Value-independent ``L = plan.trace_bound`` operands fold into any
    one result, so with ``t`` the largest magnitude among the admitted
    values a sum stays below ``t * L`` and a product below ``t ** L``.
    One ``max`` / ``min`` reduction per admitted array.
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
    bound = plan.trace_bound
    if add:
        return top * bound >= limit
    return top >= 2 and (bound >= limit.bit_length() or top**bound >= limit)


def chains_apply(op, policy) -> bool:
    """Whether :class:`NumpyChains` can run a solve: the operator is a
    typed ufunc (``accumulate`` folds in loop order) and no round
    budget asks for pointer-jumping rounds."""
    return (
        isinstance(op.vector_fn, np.ufunc)
        and op.dtype is not None
        and (policy is None or policy.max_rounds is None)
    )


class PythonRounds:
    """Pure-Python reference kernel: double-buffers every round (reads
    only the previous round's values), the synchronous PRAM semantics
    of the paper's algorithm."""

    label = "python"

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
        return np.asarray(values, dtype=op.dtype)
    if stacked:
        return np.stack([_to_array(row, op, False, False) for row in values])
    arr = np.empty(len(values), dtype=object)
    for idx, v in enumerate(values):  # element-wise: may hold sequences
        arr[idx] = v
    return arr


def _inputs(job, typed: bool):
    """``(init, finit)`` arrays: the driver's admitted typed arrays when
    it has them, else converted here."""
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


def _chain_blocks(sched: OrdinaryPlan):
    """Per level, the ``ufunc.accumulate`` blocks of a chain plan
    (derived once per plan and cached on its layout).

    A level's segments are sorted by length; each power-of-two length
    class is one ``(segments, width)`` block over the contiguous slice
    ``[lo, hi)`` of chain order -- a reshaped view when its segments
    share one length, else an index gather padded with each segment's
    last position plus the mask of real entries.  A block's heads are
    seeded from the terminals' initial cells (level 0) or from chain
    positions solved in earlier levels.
    """
    layout = sched.chains
    cache = layout._cache
    if "blocks" in cache:
        return cache["g_order"], cache["blocks"]
    order, offsets = layout.order, layout.offsets
    pos = np.empty_like(order)
    pos[order] = np.arange(order.shape[0], dtype=np.int64)
    heads = order[offsets[:-1]]
    lengths = np.diff(offsets)
    seed_cells = sched.f[heads]
    seed_pos = pos[np.maximum(sched.pred[heads], 0)]
    blocks = []
    for level in range(layout.levels):
        s0, s1 = int(layout.level_ptr[level]), int(layout.level_ptr[level + 1])
        seeds = seed_cells if level == 0 else seed_pos
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
            level_blocks.append((lo, hi, nseg, width, gather, keep, seeds[a:b]))
        blocks.append(level_blocks)
    cache["g_order"] = sched.g[order]
    cache["blocks"] = blocks
    return cache["g_order"], blocks


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` of non-negative integers (exact
    below 2**53: ``frexp``'s exponent)."""
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


class NumpyChains:
    """Work-efficient kernel for chain plans: gathers the values into
    chain order once, then per level seeds every segment head with
    ``op(seed, head)`` and runs ``op.vector_fn.accumulate`` along the
    last axis of each block.  ``accumulate`` folds left to right, the
    sequential loop's own order, so results are the loop's bit for bit
    wherever ``vector_fn`` is the loop's ``fn`` (the add and multiply
    operators, floats included; MIN / MAX keep ``np.minimum`` /
    ``np.maximum``'s NaN and signed-zero rules).  A stacked ``(k, n)``
    batch is a leading axis on every block.
    """

    label = "numpy"

    def __init__(self, job):
        op, sched = job.op, job.sched
        self.vec = op.vector_fn
        init, finit = _inputs(job, True)
        self.base = init
        self.finit = finit
        g_order, self.blocks = _chain_blocks(sched)
        #: the cells ``solved()`` lines up with (chain order)
        self.cells = g_order
        self.c = np.ascontiguousarray(init[..., g_order])
        offsets, level_ptr = sched.chains.offsets, sched.chains.level_ptr
        self.steps = [
            (range(int(offsets[level_ptr[lv]]), int(offsets[level_ptr[lv + 1]])), lv)
            for lv in range(sched.chains.levels)
        ]

    def round(self, _cells, level: int) -> None:
        c, vec = self.c, self.vec
        lead = c.shape[:-1]
        source = self.finit if level == 0 else c
        for lo, hi, nseg, width, gather, keep, seeds in self.blocks[level]:
            seed = source[..., seeds]
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
