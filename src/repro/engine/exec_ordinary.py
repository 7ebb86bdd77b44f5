"""OrdinaryIR plans and round kernels.

:func:`build_plan` replays pointer jumping on indices alone and records
the per-round active sets; the kernels replay that schedule over values
-- one gather + ``op`` + scatter per round, with no pointer
bookkeeping, no validation and no ``np.unique`` on the hot path.
Everything around the rounds (policy, spans, stats, verification, the
scatter back to cells) belongs to :mod:`repro.engine.driver`.

A kernel is built from a :class:`~repro.engine.driver.Job` (applying
the terminals' first products), exposes ``steps`` (the schedule in the
representation its :meth:`round` indexes with) and returns its
per-iteration values from ``solved()``.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.traces import predecessor_array, writer_map
from .plan import OrdinaryPlan, build_round_schedule

__all__ = [
    "build_plan",
    "build_plan_from_maps",
    "cells",
    "PythonRounds",
    "NumpyRounds",
]


def build_plan(system, fingerprint: str) -> OrdinaryPlan:
    """Validate the system and capture its full round schedule."""
    system.validate()
    pred = predecessor_array(system)
    return OrdinaryPlan(
        fingerprint=fingerprint,
        n=system.n,
        m=system.m,
        g=system.g,
        f=system.f,
        pred=pred,
        steps=build_round_schedule(pred),
    )


def build_plan_from_maps(
    g: np.ndarray, f: np.ndarray, m: int, fingerprint: str
) -> OrdinaryPlan:
    """Plan directly from index maps (caller guarantees distinct ``g``
    in range -- e.g. a validated Moebius recurrence)."""
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


class PythonRounds:
    """Pure-Python reference kernel: double-buffers every round (reads
    only the previous round's values), the synchronous PRAM semantics
    of the paper's algorithm."""

    label = "python"
    pooled = False

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


class NumpyRounds:
    """Vectorized kernel: typed ``vector_fn`` fast path, object-dtype
    ``frompyfunc`` otherwise.  A stacked batch (``job.stacked``) runs
    as one ``(k, n)`` array through the same rounds."""

    label = "numpy"
    pooled = False

    def __init__(self, job):
        op, sched = job.op, job.sched
        typed = op.vector_fn is not None and op.dtype is not None
        self.vec = vec = op.vector_fn if typed else np.frompyfunc(op.fn, 2, 1)
        init = _to_array(job.init, op, typed, job.stacked)
        finit = (
            init
            if job.finit is job.init
            else _to_array(job.finit, op, typed, job.stacked)
        )
        #: the typed ``(k, m)`` input, scattered into in place by the
        #: driver (``None``: scatter onto the Python rows)
        self.base = init if typed and job.stacked else None
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
