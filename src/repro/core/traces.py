"""Trace extraction (paper Lemma 1 and Figs 1, 4, 5).

The *trace* of a cell is the sequence of initial-array values whose
``op``-product equals the cell's final value:

* For **OrdinaryIR** (``h = g``, ``g`` distinct) the trace is a *list*
  (Lemma 1): following iteration ``i`` back through predecessors
  ``j_1 > j_2 > ... > j_k`` (where ``g(j_{t}) = f(j_{t-1})`` and
  ``j_t`` is the last such iteration before ``j_{t-1}``),

  .. math::

     A'[g(i)] = A[f(j_k)] \\cdot A[g(j_k)] \\cdot ... \\cdot A[g(j_1)]
                \\cdot A[g(i)]

  i.e. the terminal's ``f``-operand followed by the chain's own initial
  values, oldest first.  Operand order is significant -- ``op`` need
  not be commutative.

* For **GIR** the trace is a binary *tree* (paper Fig 4): iteration
  ``i`` combines the traces of its ``f``- and ``h``-operands.  Shared
  sub-traces make the expanded tree exponentially large in general
  (Fig 5: ``X_i = X_{i-1} X_{i-2}`` has ``fib(i)``-sized traces), which
  is why the GIR solver counts leaf multiplicities instead of expanding.

This module computes both structures explicitly.  It is the basis for
the Fig-1/Fig-4/Fig-5 benchmarks, for the brute-force verification of
the CAP path counter, and for the ablation measuring the cost of naive
trace expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CyclicDependenceError
from .equations import GIRSystem, IRValidationError, OrdinaryIRSystem

__all__ = [
    "writer_map",
    "predecessor_array",
    "predecessors",
    "ordinary_trace_factors",
    "all_ordinary_traces",
    "chain_lengths",
    "max_chain_length",
    "render_factors",
    "Leaf",
    "Node",
    "gir_trace_tree",
    "tree_sizes",
    "leaf_counts",
    "expand_tree_value",
    "render_tree",
]

# ---------------------------------------------------------------------------
# Ordinary IR: list traces
# ---------------------------------------------------------------------------


def writer_map(g: np.ndarray, m: int) -> np.ndarray:
    """``writer[cell] = i`` for the unique iteration assigning ``cell``
    (requires distinct ``g``), or ``-1`` for never-assigned cells."""
    writer = np.full(m, -1, dtype=np.int64)
    writer[g] = np.arange(g.shape[0], dtype=np.int64)
    return writer


def predecessor_array(system: OrdinaryIRSystem) -> np.ndarray:
    """``pred[i]`` = the iteration whose result iteration ``i`` reads
    through ``A[f(i)]``, or ``-1`` when ``A[f(i)]`` is still at its
    initial value at time ``i``.

    This is the linked-list spine of Lemma 1: ``pred[i] = j`` iff
    ``g(j) = f(i)`` and ``j < i`` (``j`` unique by distinctness of
    ``g``).  Vectorized: O(n + m).
    """
    return predecessors(system.f, writer_map(system.g, system.m))


def predecessors(f: np.ndarray, writer: np.ndarray) -> np.ndarray:
    """:func:`predecessor_array` from the ``f`` map and the
    :func:`writer_map` of ``g``."""
    pred = writer.take(f)  # iteration that (eventually) writes f(i), or -1
    pred[pred >= np.arange(f.shape[0], dtype=np.int64)] = -1
    return pred


def ordinary_trace_factors(
    system: OrdinaryIRSystem,
    iteration: int,
    pred: Optional[np.ndarray] = None,
) -> List[int]:
    """The trace of ``A'[g(iteration)]`` as a list of *cells* whose
    initial values are multiplied left-to-right.

    Per Lemma 1 the list is ``[f(j_k), g(j_k), ..., g(j_1), g(i)]``
    where ``j_k`` is the chain terminal.
    """
    if pred is None:
        pred = predecessor_array(system)
    chain: List[int] = []
    j = iteration
    while True:
        chain.append(j)
        nxt = int(pred[j])
        if nxt < 0:
            break
        j = nxt
        # A well-formed predecessor array strictly decreases, so a
        # chain can never exceed n nodes; a hand-supplied pred with a
        # cycle would loop here forever.
        if len(chain) > system.n:
            from ..check.preconditions import chain_cycle_finding

            finding = chain_cycle_finding(iteration, system.n, chain[-4:])
            raise CyclicDependenceError(
                finding.message,
                cycle=chain[-4:],
                findings=[finding],
            )
    terminal = chain[-1]
    factors = [int(system.f[terminal])]
    for j in reversed(chain):
        factors.append(int(system.g[j]))
    return factors


def all_ordinary_traces(system: OrdinaryIRSystem) -> Dict[int, List[int]]:
    """Traces of every assigned cell, keyed by cell index.

    Cells never assigned are omitted -- they "preserve their initial
    values" in the paper's wording for Fig 1.
    """
    pred = predecessor_array(system)
    return {
        int(system.g[i]): ordinary_trace_factors(system, i, pred)
        for i in range(system.n)
    }


def chain_lengths(system: OrdinaryIRSystem) -> np.ndarray:
    """Length (number of iterations) of each iteration's chain.

    ``lengths[i]`` counts the nodes on the Lemma-1 list of iteration
    ``i``; the trace has ``lengths[i] + 1`` factors.  Computed in O(n)
    by dynamic programming over the predecessor array (predecessors are
    always earlier iterations, so a forward scan suffices).
    """
    pred = predecessor_array(system)
    lengths = np.ones(system.n, dtype=np.int64)
    for i in range(system.n):
        p = int(pred[i])
        if p >= 0:
            lengths[i] = lengths[p] + 1
    return lengths


def max_chain_length(system: OrdinaryIRSystem) -> int:
    """Longest Lemma-1 chain; the pointer-jumping solver finishes in
    ``ceil(log2(max_chain_length))`` concatenation rounds."""
    if system.n == 0:
        return 0
    return int(chain_lengths(system).max())


def render_factors(
    factors: Sequence[int], *, array_name: str = "A", one_based: bool = False
) -> str:
    """Render a trace factor list in the paper's Fig-1 style,
    e.g. ``A[2]*A[3]*A[6]``."""
    off = 1 if one_based else 0
    return "*".join(f"{array_name}[{c + off}]" for c in factors)


# ---------------------------------------------------------------------------
# GIR: tree traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A tree leaf: the initial value of ``cell``."""

    cell: int


@dataclass(frozen=True)
class Node:
    """An internal node: the value computed by ``iteration``,
    combining the ``f``-operand (left) and ``h``-operand (right)."""

    iteration: int
    left: "TraceTree"
    right: "TraceTree"


TraceTree = Union[Leaf, Node]


def _gir_writer(system: GIRSystem) -> np.ndarray:
    if not system.g_is_distinct():
        raise IRValidationError(
            "trace trees require distinct g; normalize_non_distinct() first"
        )
    return writer_map(system.g, system.m)


def _operand_ref(
    writer: np.ndarray, cell: int, before_iteration: int
) -> Tuple[str, int]:
    """Resolve the operand ``A[cell]`` read at ``before_iteration``:
    either the node of an earlier iteration or an initial-value leaf."""
    w = int(writer[cell])
    if 0 <= w < before_iteration:
        return ("node", w)
    return ("leaf", cell)


def gir_trace_tree(system: GIRSystem, iteration: int) -> Node:
    """Build the *expanded* trace tree of iteration ``iteration``.

    Shared sub-traces are materialized as shared Python objects, so the
    object graph is a DAG of size O(n) even though the expanded tree it
    represents can be exponential.  Use :func:`tree_sizes` for the
    expanded sizes and :func:`expand_tree_value` (small n only!) to
    evaluate by full expansion.
    """
    writer = _gir_writer(system)
    memo: Dict[int, Node] = {}

    # Iterative post-order construction: chains can be deeper than the
    # Python recursion limit.
    stack: List[int] = [iteration]
    while stack:
        i = stack[-1]
        if i in memo:
            stack.pop()
            continue
        kind_f, ref_f = _operand_ref(writer, int(system.f[i]), i)
        kind_h, ref_h = _operand_ref(writer, int(system.h[i]), i)
        pending = [
            ref for kind, ref in ((kind_f, ref_f), (kind_h, ref_h))
            if kind == "node" and ref not in memo
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        left: TraceTree = Leaf(ref_f) if kind_f == "leaf" else memo[ref_f]
        right: TraceTree = Leaf(ref_h) if kind_h == "leaf" else memo[ref_h]
        memo[i] = Node(iteration=i, left=left, right=right)

    return memo[iteration]


def tree_sizes(system: GIRSystem) -> List[int]:
    """Expanded-tree leaf counts per iteration (exact Python ints).

    ``sizes[i]`` is the number of initial-value operands in the fully
    expanded trace of iteration ``i`` -- the quantity that grows like
    Fibonacci for ``A[i] := A[i-1]*A[i-2]`` (paper Fig 5) and justifies
    atomic powers.  Computed in O(n) by sharing.
    """
    writer = _gir_writer(system)
    sizes: List[int] = [0] * system.n

    def operand_size(cell: int, i: int) -> int:
        kind, ref = _operand_ref(writer, cell, i)
        return 1 if kind == "leaf" else sizes[ref]

    for i in range(system.n):
        sizes[i] = operand_size(int(system.f[i]), i) + operand_size(
            int(system.h[i]), i
        )
    return sizes


def leaf_counts(system: GIRSystem) -> List[Dict[int, int]]:
    """Exact leaf multiplicities per iteration, by forward DP.

    ``leaf_counts(sys)[i][c]`` is the multiplicity of initial value
    ``A[c]`` in the expanded trace of iteration ``i`` -- the ground
    truth the CAP path counter must reproduce (tested against it).
    Worst-case O(n * distinct-leaves) time/space; intended for
    verification, not for the production GIR path.

    Each row starts as a C-level copy of its first operand's row; the
    second operand's entries are added in one tight loop.
    """
    writer = _gir_writer(system)
    n = system.n
    idx = np.arange(n, dtype=np.int64)
    # each operand as an earlier iteration i >= 0, or leaf c as -1 - c
    refs = []
    for cells in (np.asarray(system.f), np.asarray(system.h)):
        w = writer[cells]
        refs.append(np.where((w >= 0) & (w < idx), w, -1 - cells).tolist())
    counts: List[Dict[int, int]] = [dict() for _ in range(n)]
    for i, (a, b) in enumerate(zip(*refs)):
        acc = dict(counts[a]) if a >= 0 else {-1 - a: 1}
        get = acc.get
        if b >= 0:
            for c, k in counts[b].items():
                acc[c] = get(c, 0) + k
        else:
            acc[-1 - b] = get(-1 - b, 0) + 1
        counts[i] = acc
    return counts


def expand_tree_value(tree: TraceTree, initial: Sequence[Any], op) -> Any:
    """Evaluate a trace tree by full expansion (no power shortcuts).

    Exponential in general -- used only by tests and by the
    power-atomicity ablation on tiny systems.  Iterative with an
    explicit stack (trees can be deep) and memoized on node identity so
    the *work* is O(DAG size) while still avoiding atomic powers.
    """
    memo: Dict[int, Any] = {}
    fn = op.fn if hasattr(op, "fn") else op

    def value(t: TraceTree) -> Any:
        if isinstance(t, Leaf):
            return initial[t.cell]
        key = id(t)
        if key in memo:
            return memo[key]
        # explicit two-phase post-order: children are guaranteed to be
        # evaluated before their (possibly shared) parents, and deep
        # chains cannot hit the recursion limit
        stack: List[Tuple[Node, bool]] = [(t, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in memo:
                continue
            if ready:
                lv = (
                    initial[node.left.cell]
                    if isinstance(node.left, Leaf)
                    else memo[id(node.left)]
                )
                rv = (
                    initial[node.right.cell]
                    if isinstance(node.right, Leaf)
                    else memo[id(node.right)]
                )
                memo[id(node)] = fn(lv, rv)
            else:
                stack.append((node, True))
                for child in (node.left, node.right):
                    if isinstance(child, Node) and id(child) not in memo:
                        stack.append((child, False))
        return memo[key]

    return value(tree)


def render_tree(tree: TraceTree, *, array_name: str = "A") -> str:
    """Render a (small!) trace tree as a parenthesized product,
    e.g. ``((A[0]*A[1])*A[1])`` for the Fig-5 expansion."""
    if isinstance(tree, Leaf):
        return f"{array_name}[{tree.cell}]"
    return (
        "("
        + render_tree(tree.left, array_name=array_name)
        + "*"
        + render_tree(tree.right, array_name=array_name)
        + ")"
    )
