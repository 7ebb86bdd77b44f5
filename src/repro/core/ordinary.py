"""The OrdinaryIR parallel solver (paper, section 2).

Solves ``for i = 0..n-1: A[g(i)] := op(A[f(i)], A[g(i)])`` with ``g``
distinct in ``O(log n)`` synchronous rounds of trace concatenation --
the paper's greedy algorithm, a pointer-jumping scheme over the
Lemma-1 trace lists.

State per assigned cell ``x = g(i)``:

* ``val[x]`` -- the ``op``-product of a contiguous *sub-trace* ending
  at ``x``;
* ``nxt[x]`` -- a pointer to the cell whose sub-trace precedes
  ``val[x]``'s, or NIL when ``val[x]`` is the complete trace.

Initialization (one parallel step over iterations ``i``):

* the chain *terminal* (no earlier iteration wrote ``A[f(i)]``)
  computes the paper's "first product" ``val = A[f(i)] . A[g(i)]`` and
  sets ``nxt = NIL``;
* every other iteration sets ``val = A[g(i)]`` and points ``nxt`` at
  its predecessor's cell ``g(j)`` (the last ``j < i`` with
  ``g(j) = f(i)``; unique because ``g`` is distinct).

Each round then performs, synchronously for every non-NIL cell,

.. code-block:: none

    val[x] := val[nxt[x]] (.) val[x]        # concatenate sub-traces
    nxt[x] := nxt[nxt[x]]                   # pointer jumping

Left-multiplication keeps operand order intact, so ``op`` need not be
commutative (the paper stresses this).  Every round either completes a
trace (absorbing the terminal, whose ``nxt`` is NIL) or doubles the
number of factors it covers, so ``ceil(log2(L))`` rounds suffice,
where ``L`` is the longest trace-chain length (``L <= n``).

The reads are concurrent -- several chains may share a predecessor --
so the algorithm is CREW; writes are exclusive (``g`` distinct).

Two value kernels implement this algorithm; both now live behind the
:mod:`repro.engine` plan/execute pipeline
(:mod:`repro.engine.exec_ordinary`), which separates the
value-independent planning (predecessor array + the full pointer
jumping round schedule, cached by index-map fingerprint) from the
per-round value work:

* the ``python`` backend -- a pure-Python synchronous-step reference
  that mirrors the PRAM semantics one step at a time (double
  buffering).  This is the version executed instruction-by-instruction
  on the PRAM machine in :mod:`repro.pram.ir_programs`.
* the ``numpy`` backend -- a vectorized engine operating on
  iteration-indexed arrays with NumPy fancy indexing, used for large
  ``n`` (the Fig-3 benchmark runs it at ``n = 50,000``).

The historical entry points ``solve_ordinary`` /
``solve_ordinary_numpy`` were removed in 1.2.0 -- use
:func:`repro.engine.solve` with
``options=EngineOptions(backend="python")`` / ``"numpy"``.
This module keeps the :class:`SolveStats` record (rounds, per-round
active counts) that the cost model consumes to charge SimParC-style
instruction counts, plus the sequential baseline the policy-fallback
and differential-verification paths share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from .equations import OrdinaryIRSystem

__all__ = ["SolveStats"]

NIL = np.int64(-1)


def _sequential_baseline(
    system: OrdinaryIRSystem, f_initial: Optional[List[Any]]
) -> List[Any]:
    """O(n) sequential execution used as the policy-fallback rung.

    Honors ``f_initial``: a terminal's ``f``-operand (a cell still at
    its initial value) reads from ``f_initial`` when provided, exactly
    as the parallel engines' initialization step does.
    """
    S = system.initial
    F = f_initial if f_initial is not None else S
    op = system.op.fn
    g = system.g.tolist()
    f = system.f.tolist()
    out = list(S)
    assigned = [False] * system.m
    for i in range(system.n):
        fi = f[i]
        left = out[fi] if assigned[fi] else F[fi]
        out[g[i]] = op(left, out[g[i]])
        assigned[g[i]] = True
    return out


@dataclass
class SolveStats:
    """Execution profile of one parallel solve.

    Attributes
    ----------
    n:
        Number of loop iterations (= virtual processors spawned).
    rounds:
        Number of concatenation rounds executed after initialization.
    active_per_round:
        ``active_per_round[r]`` is the number of virtual processors
        that performed a concatenation (non-NIL pointer) in round
        ``r``.  Drives the Brent-scheduled time accounting: with ``P``
        processors, round ``r`` takes ``ceil(active_r / P)`` bursts.
    init_ops:
        Number of ``op`` applications during initialization (one per
        chain terminal -- the paper's "first products").
    """

    n: int
    rounds: int = 0
    active_per_round: List[int] = field(default_factory=list)
    init_ops: int = 0

    @property
    def total_ops(self) -> int:
        """Total ``op`` applications (the algorithm's op-work)."""
        return self.init_ops + sum(self.active_per_round)

    @property
    def depth(self) -> int:
        """Parallel depth in supersteps (init + rounds)."""
        return 1 + self.rounds
