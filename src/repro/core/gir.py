"""The General IR (GIR) solver (paper, section 4).

Solves ``for i: A[g(i)] := op(A[f(i)], A[h(i)])`` with unrestricted
``f, h`` by the paper's three-stage pipeline:

1. build the dependence DAG (:mod:`repro.core.depgraph`);
2. count all paths with CAP (:mod:`repro.core.cap`) -- the path count
   from final node ``i`` to leaf ``c`` is the power of the initial
   value ``A[c]`` in the trace of ``A'[g(i)]``;
3. evaluate every trace as ``A[c1]^{x1} (.) ... (.) A[ck]^{xk}`` using
   the operator's *atomic power*, reduced in ``O(log k)`` parallel
   depth.

Requirements enforced here (both argued in the paper):

* ``op`` must be **commutative** -- GIR traces are trees, and power
  gathering reorders operands.  A non-commutative operator raises
  :class:`~repro.core.operators.OperatorError`; this is the boundary
  the paper's P-vs-NC remark draws (general IR with non-commutative op
  expresses the circuit-value problem).
* ``power`` must be atomic -- traces can be exponentially long
  (Fibonacci powers for ``A[i] := A[i-1] * A[i-2]``), so expanding
  them is hopeless; only the exponent arithmetic touches the large
  counts.

Non-distinct ``g`` is handled by single-assignment renaming
(:func:`repro.core.equations.normalize_non_distinct`) before the
pipeline, matching the full paper's deferred remark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from .cap import count_all_paths
from .depgraph import build_dependence_graph
from .equations import GIRSystem
from .operators import Operator

__all__ = [
    "GIRSolveStats",
    "evaluate_trace_powers",
    "evaluate_trace_powers_items",
    "trace_powers",
]


@dataclass
class GIRSolveStats:
    """Execution profile of a GIR solve.

    Attributes
    ----------
    n:
        Iterations in the (possibly renamed) solved system.
    cap_iterations:
        Path-doubling rounds CAP needed.
    cap_edge_work:
        Total edge compositions inside CAP.
    power_ops:
        Atomic power applications during trace evaluation.
    combine_ops:
        Binary ``op`` applications combining the powered factors.
    reduction_depth:
        Parallel depth of the final combine stage,
        ``max_i ceil(log2(#factors_i))``.
    renamed:
        True when the input had non-distinct ``g`` and was normalized.
    ordinary_dispatch:
        True when the system was ordinary-shaped and the cheaper
        OrdinaryIR solver ran instead of the CAP pipeline (in which
        case ``combine_ops``/``reduction_depth`` carry the pointer-
        jumping profile and the CAP fields are zero).
    """

    n: int
    cap_iterations: int
    cap_edge_work: int
    power_ops: int = 0
    combine_ops: int = 0
    reduction_depth: int = 0
    renamed: bool = False
    ordinary_dispatch: bool = False

    @property
    def total_ops(self) -> int:
        return self.power_ops + self.combine_ops


def evaluate_trace_powers(
    powers_by_cell: Dict[int, int],
    initial: List[Any],
    op: Operator,
) -> Tuple[Any, int, int]:
    """Evaluate one trace from its power table.

    Computes ``op``-product of ``initial[c] ^ x`` over the table in a
    balanced (log-depth) order, mirroring the parallel reduction the
    paper prescribes.  Returns ``(value, power_ops, combine_ops)``.

    Factors are processed in ascending cell order: with a commutative
    ``op`` the order is semantically irrelevant, but determinism keeps
    floating-point results reproducible run to run.
    """
    return evaluate_trace_powers_items(sorted(powers_by_cell.items()), initial, op)


def evaluate_trace_powers_items(
    items: List[Tuple[int, int]],
    initial: List[Any],
    op: Operator,
) -> Tuple[Any, int, int]:
    """:func:`evaluate_trace_powers` over **pre-sorted** ``(cell,
    power)`` pairs.

    Plans store each row's cells already sorted (CSR rows are built
    ordered), so per-solve evaluation skips the historical per-call
    re-sort.  Semantics are otherwise identical, including the exact
    balanced pairing order.
    """
    if not items:
        raise ValueError("empty trace: cell was never assigned")
    factors = [
        initial[c] if x == 1 else op.power(initial[c], x) for c, x in items
    ]
    power_ops = sum(1 for _c, x in items if x > 1)
    combine_ops = 0
    # balanced pairwise reduction (log-depth combine tree)
    while len(factors) > 1:
        nxt = []
        for a, b in zip(factors[0::2], factors[1::2]):
            nxt.append(op.fn(a, b))
            combine_ops += 1
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return factors[0], power_ops, combine_ops


def trace_powers(system: GIRSystem) -> List[Dict[int, int]]:
    """The power table of every iteration's trace.

    ``trace_powers(sys)[i][c]`` is the multiplicity of initial value
    ``A[c]`` in the trace of iteration ``i`` -- the quantity CAP
    computes (exact Python ints, Fibonacci-sized for the paper's
    Fig-5 recurrence).  Requires distinct ``g``; normalize first for
    repeated assignments.
    """
    graph = build_dependence_graph(system)
    cap = count_all_paths(graph)
    return cap.powers_by_cell_all(graph)
