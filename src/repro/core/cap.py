"""CAP -- Counting All Paths (paper, Definition 1 and Figs 7-9).

Given the GIR dependence DAG ``G``, ``CAP(G)`` is the labeled graph
``G'`` whose edge ``<i, j>[x]`` (``i`` a final node, ``j`` a leaf)
exists iff there are exactly ``x`` distinct paths from ``i`` to ``j``
in ``G``.  The label ``x`` is precisely the power of the initial value
``A[j]`` inside the trace of ``A'[g(i)]``, so CAP is the heart of the
GIR solver.

The parallel algorithm runs ``ceil(log2(depth))`` *path-doubling*
iterations.  Every iteration transforms the current edge set by, for
each node ``u`` in parallel:

1. **Paths multiplication** (Fig 7): each edge ``<u, v>[x]`` whose
   target ``v`` is not a leaf is composed with each of ``v``'s edges
   ``<v, w>[y]``, producing ``<u, w>[x*y]``; the used edge ``<u, v>``
   is dropped (the paper instead marks consumed edges for deletion --
   same effect, different bookkeeping).
2. **Paths addition** (Fig 8): parallel edges to the same target are
   merged by summing their labels.

Invariant: after iteration ``t``, every edge of ``u`` either reaches a
leaf and carries the exact path count, or represents all path-prefixes
of length exactly ``2^t`` -- so edge lengths double each round, giving
the logarithmic iteration bound.

Doubling *is* counting-matrix squaring.  Split the state into blocks
``L`` (final node -> leaf cell, complete path counts, ``n x m``) and
``F`` (final -> final, open prefix counts, ``n x n``); the iteration
is then the closed-form recurrence

.. math::  L_{t+1} = L_t + F_t L_t, \\qquad F_{t+1} = F_t^2

with ``L_0 / F_0`` the leaf / final columns of the adjacency matrix,
and ``F_t = A^{2^t}`` exactly.

Which algorithm runs
--------------------

An unbounded ``method="auto"`` run -- every power table the engine
builds -- never doubles.  It counts bottom-up in dependence order, the
way the sequential DP does, but one whole dependence *level* at a time in
NumPy (:func:`_level_pass`): give every node its level (the longest
path below it, leaves at 0), then for each level gather every node's
two operand rows -- a finished final node contributes its row, a leaf
``(cell, 1)`` -- and merge them with one sort plus ``np.add.reduceat``
on ``node * m + cell`` keys.  Rows come out cell-sorted, so the result
is :attr:`CAPResult.leaf_csr` directly.  A count at level ``L`` is at
most ``2^L``, so graphs of depth <= :data:`_LEVEL_MAX_DEPTH` (62) never
leave int64.  (A default engine solve of such a graph runs no CAP at
all: it sweeps the same levels over values, the graph's nodes as the
slots of a :class:`~repro.engine.plan.LevelLayout`.)  Deeper graphs go to the
sequential DP (:func:`_dp_with_work`), which counts in index order --
a hand-built graph whose operands do not precede their readers is
first renumbered into dependence order -- and reduces by ``period`` as
it counts; the Fibonacci-shaped DAGs, whose
counts run to ``n * 0.7`` bits, are the typical case.  It keeps each
row as a tuple of leaf ids, shared between rows of equal keys, and a
slice of one flat list of counts, so a merge of equal keys appends
sums to that list and builds nothing else, and it fills
:attr:`CAPResult.leaf_csr` at the end with ``np.fromiter``: int64
counts, or object ones (exact Python ints) when exact counts leave
int64 with no period.  Neither route imports SciPy.

Doubling rounds are still what a caller gets from a bounded run
(``max_iterations`` / ``policy``: partial states and enforcer budgets
are doubling-round notions), from an explicit ``method="matrix"`` or
``"edges"``, and from :func:`repro.pram.vectorized.profile_gir`, which
prices CAP's rounds.  The ``"matrix"`` recurrence runs on

* ``scipy.sparse`` int64 CSR matrices when SciPy is importable (the
  only place this package imports it, lazily; dependence DAGs have
  out-degree <= 2, so the state stays sparse),
* dense ``numpy`` int64 matrices for small graphs without SciPy,
* the pure-Python sparse rows (the historical dict ``EdgeSet`` --
  literally a CSR matrix with dict rows) as the last resort, and as
  the **object-dtype promotion** target: path counts grow
  Fibonacci-fast, and the moment an upcoming product could exceed
  int64 the whole state is converted to dict rows over exact Python
  ints and the loop continues there bit-for-bit.

Every unbounded run, and a matrix run converged in int64, hands its
leaf block out as CSR arrays (:attr:`CAPResult.leaf_csr`) -- the
planner wraps them as the power table without a Python pass -- and
:attr:`CAPResult.powers` stays the dict-row :class:`EdgeSet` view,
built lazily, so the checker, the PRAM profile and every historical
test compare against the same representation.  Only doubling runs
that end in dict rows (dict doubling, an overflow promotion, a
policy's fallback, a partial state) carry no CSR.
:attr:`CAPResult.method` names the route that counted.

The level pass and the DP report as ``iterations`` the
``ceil(log2(depth))`` rounds the doubling schedule would have used
(the plan-level quantity) and as ``edge_work`` the row entries they
merged from finished final nodes; ``work_per_iteration`` is empty
since no doubling rounds ran.

Path counts only ever become exponents of an operator's atomic
power, and an operator with a ``power_period`` ``p`` needs each
exponent ``k`` only modulo ``p``.  An unbounded run given that
``period`` therefore keeps its counts exact while they fit int64
(every level-pass result does); once a count would leave int64 every
count is returned as its :func:`residue` ``((k - 1) mod p) + 1``.  The
DP folds the residue into every merge from that row on, so no
Fibonacci-sized integer is ever built, and reduces the earlier rows
(which fit int64) in one array pass at the end.  Bounded runs keep
exact counts: their partial states are doubling-round states.

A plain dict-row DP (:func:`count_paths_dp`), sharing no code with
:func:`_dp_with_work`, provides independent ground truth for the
tests, and :func:`cap_iterations` exposes the round-by-round edge sets
for the Fig-9 benchmark.
"""

from __future__ import annotations

import os

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..obs import get_registry, get_tracer, maybe_span
from ..resilience.policy import SolvePolicy
from .depgraph import DependenceGraph

__all__ = [
    "CAPResult",
    "count_all_paths",
    "cap_iterations",
    "count_paths_dp",
    "node_levels",
    "residue",
    "DP_DEPTH_CUTOFF",
]

EdgeSet = List[Dict[int, int]]  # per final node: {target: path count}

#: Doubling work is O(n * depth) on chain-like graphs, so past this
#: depth a caller that wants doubling-round accounting
#: (:func:`repro.pram.vectorized.profile_gir`) asks for the DP instead.
DP_DEPTH_CUTOFF = 4096

#: The level pass serves graphs at most this deep: a count at level
#: ``L`` is at most ``2^L``, so every count of such a graph fits int64.
_LEVEL_MAX_DEPTH = 62

#: Without SciPy, dense matrices are used only up to this many nodes
#: (n + m); past it the pure-Python sparse rows take over.
_DENSE_MAX_NODES = 2048

#: Promote to exact Python ints before any product could reach this.
_INT64_GUARD = 2**62

#: A count past this has no int64 form: with a period, reduce it.
_INT64_MAX = 2**63 - 1

_METHODS = ("auto", "matrix", "edges", "dp")


def residue(count, period: int):
    """A path count ``k >= 1`` as ``((k - 1) mod period) + 1``: congruent
    to ``k`` modulo ``period`` and still in ``[1, period]`` (atomic
    powers need positive exponents).  Works on Python ints and on int64
    or object arrays alike; taking ``k mod period`` first keeps a
    big-int ``k`` from being copied whole by the ``- 1``."""
    return (count % period - 1) % period + 1


def _scipy_sparse():
    """``scipy.sparse`` when importable, else ``None``.

    Centralized so tests can monkeypatch SciPy absence and CI can force
    the dense/pure-Python fallbacks via ``REPRO_NO_SCIPY=1``.
    """
    if os.environ.get("REPRO_NO_SCIPY"):
        return None
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - exercised via monkeypatch
        return None
    return sparse


@dataclass
class CAPResult:
    """Output of the CAP computation.

    Attributes
    ----------
    iterations:
        Number of path-doubling iterations executed (for the level
        pass and the DP: the rounds the doubling schedule would need,
        ``ceil(log2(depth))``).
    edge_work:
        Total number of edge compositions performed across all
        iterations (the algorithm's work measure, consumed by the PRAM
        cost accounting); for the level pass and the DP, the row
        entries merged from finished final nodes.
    work_per_iteration:
        Edge compositions per doubling iteration -- the per-superstep
        active counts the processor-bounded (Brent) accounting needs.
        Empty when the level pass or the DP ran instead of doubling
        rounds.
    leaf_csr:
        The leaf block ``L`` as CSR arrays ``(row_ptr, cells, counts)``
        -- int64 row pointers, leaf cells strictly increasing per row
        -- whenever the level pass or the DP ran, or the matrix
        recurrence converged in int64.  ``counts`` is int64, except
        for a DP whose exact counts leave int64 with no period: an
        object array of exact Python ints.  ``None`` when the result
        was computed as dict rows (dict doubling, an overflow
        promotion, a policy's fallback, a partial state).
    period:
        When set, every count is its :func:`residue` modulo ``period``
        (an unbounded run given a period whose exact counts would
        leave int64); ``None`` for exact counts.
    method:
        The route that counted: ``"levels"`` (the level pass),
        ``"dp"`` (the sequential DP, also a policy's fallback) or
        ``"doubling"`` (path-doubling rounds, matrix or dict).
    """

    iterations: int
    edge_work: int = 0
    work_per_iteration: List[int] = field(default_factory=list)
    leaf_csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    period: Optional[int] = None
    method: str = "doubling"
    _rows: Optional[EdgeSet] = field(default=None, repr=False, compare=False)

    @property
    def powers(self) -> EdgeSet:
        """``powers[i]`` maps leaf node ids to path counts from final
        node ``i`` -- the multiset of initial values (with
        multiplicities) in the trace of iteration ``i``.  Built from
        ``leaf_csr`` on first access and cached."""
        if self._rows is None:
            row_ptr, cells, counts = self.leaf_csr
            n = int(row_ptr.shape[0]) - 1
            ptr = row_ptr.tolist()
            keys = (cells + n).tolist()
            vals = counts.tolist()
            self._rows = [
                dict(zip(keys[ptr[i] : ptr[i + 1]], vals[ptr[i] : ptr[i + 1]]))
                for i in range(n)
            ]
        return self._rows

    def powers_by_cell(self, graph: DependenceGraph, i: int) -> Dict[int, int]:
        """Trace powers of iteration ``i`` keyed by array *cell*."""
        return {graph.leaf_cell(t): x for t, x in self.powers[i].items()}

    def powers_by_cell_all(self, graph: DependenceGraph) -> List[Dict[int, int]]:
        """Trace powers of **every** iteration keyed by array cell.

        One pass over the converged edge sets -- no per-row method
        dispatch -- so deriving the full power table is O(total edges).
        """
        n = graph.n
        return [{t - n: x for t, x in row.items()} for row in self.powers]


def _initial_edges(graph: DependenceGraph) -> EdgeSet:
    return [graph.out_edges(i) for i in range(graph.n)]


def _doubling_step(edges: EdgeSet, graph: DependenceGraph) -> "tuple[EdgeSet, int, bool]":
    """One synchronous CAP iteration over all nodes.

    Returns ``(new_edges, compositions, converged)``; reads only the
    previous iteration's edge sets (PRAM semantics).
    """
    n = graph.n
    new_edges: EdgeSet = [dict() for _ in range(n)]
    work = 0
    converged = True
    for u in range(n):
        acc = new_edges[u]
        for v, x in edges[u].items():
            if v >= n:  # leaf: complete path, keep as is
                acc[v] = acc.get(v, 0) + x
            else:
                converged = False
                for w, y in edges[v].items():  # paths multiplication
                    acc[w] = acc.get(w, 0) + x * y  # paths addition
                    work += 1
    return new_edges, work, converged


class _MatrixState:
    """The L/F block-matrix doubling state (scipy CSR or dense int64).

    Mirrors the dict ``EdgeSet`` exactly: row ``u`` of ``L`` holds
    ``u``'s complete-path labels (column = leaf cell), row ``u`` of
    ``F`` its open prefixes (column = final node).  ``step()`` performs
    the same compositions as :func:`_doubling_step` and charges the
    identical work count, so observability and policy semantics are
    representation-independent.
    """

    def __init__(self, graph: DependenceGraph, sparse_mod) -> None:
        self.n = int(graph.n)
        self.m = int(graph.m)
        self.sparse = sparse_mod
        n, m = self.n, self.m
        tf = np.asarray(graph.target_f, dtype=np.int64)
        th = np.asarray(graph.target_h, dtype=np.int64)
        rows = np.concatenate([np.arange(n, dtype=np.int64)] * 2) if n else (
            np.zeros(0, dtype=np.int64)
        )
        cols = np.concatenate([tf, th]) if n else np.zeros(0, dtype=np.int64)
        ones = np.ones(rows.shape[0], dtype=np.int64)
        leaf = cols >= n
        if sparse_mod is not None:
            self.L = sparse_mod.coo_matrix(
                (ones[leaf], (rows[leaf], cols[leaf] - n)), shape=(n, m)
            ).tocsr()
            self.F = sparse_mod.coo_matrix(
                (ones[~leaf], (rows[~leaf], cols[~leaf])), shape=(n, n)
            ).tocsr()
            self.L.sum_duplicates()
            self.F.sum_duplicates()
        else:
            self.L = np.zeros((n, m), dtype=np.int64)
            self.F = np.zeros((n, n), dtype=np.int64)
            np.add.at(self.L, (rows[leaf], cols[leaf] - n), 1)
            np.add.at(self.F, (rows[~leaf], cols[~leaf]), 1)

    # -- introspection ----------------------------------------------------

    def _nnz(self, mat) -> int:
        if self.sparse is not None:
            return int(mat.nnz)
        return int(np.count_nonzero(mat))

    def converged(self) -> bool:
        return self._nnz(self.F) == 0

    def live_edges(self) -> int:
        return self._nnz(self.L) + self._nnz(self.F)

    def _row_degrees(self) -> np.ndarray:
        if self.sparse is not None:
            return np.diff(self.L.indptr) + np.diff(self.F.indptr)
        return (self.L != 0).sum(axis=1) + (self.F != 0).sum(axis=1)

    def _max_label(self) -> int:
        if self.sparse is not None:
            lmax = int(self.L.data.max()) if self.L.nnz else 0
            fmax = int(self.F.data.max()) if self.F.nnz else 0
        else:
            lmax = int(self.L.max()) if self.L.size else 0
            fmax = int(self.F.max()) if self.F.size else 0
        return max(lmax, fmax)

    def overflow_risk(self) -> bool:
        """Conservative pre-step bound: could any composed label of the
        next iteration leave int64?  Each new label is a sum of at most
        ``max_row_degree`` products of two current labels."""
        if self.converged():
            return False
        deg = self._row_degrees()
        rmax = int(deg.max()) if deg.size else 0
        top = self._max_label()
        return rmax > 0 and top > 0 and top * top * rmax >= _INT64_GUARD

    # -- the doubling step ------------------------------------------------

    def step(self) -> int:
        """``L += F @ L; F = F @ F``; returns the composition count
        (identical to the dict algorithm's work measure)."""
        deg = self._row_degrees()
        if self.sparse is not None:
            work = int(deg[self.F.indices].sum()) if self.F.nnz else 0
            self.L = self.L + self.F @ self.L
            self.F = self.F @ self.F
            self.L.sum_duplicates()
            self.F.sum_duplicates()
        else:
            open_per_col = (self.F != 0).sum(axis=0)
            work = int((open_per_col * deg).sum())
            self.L = self.L + self.F @ self.L
            self.F = self.F @ self.F
        return work

    # -- views ------------------------------------------------------------

    def leaf_csr(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The converged ``L`` as int64 CSR arrays ``(row_ptr, cells,
        counts)``, cells strictly increasing within each row."""
        if self.sparse is not None:
            L = self.L
            L.sum_duplicates()  # canonical: sorted, duplicate-free
            return (
                L.indptr.astype(np.int64),
                L.indices.astype(np.int64),
                L.data.astype(np.int64),
            )
        rows, cells = np.nonzero(self.L)  # row-major: sorted per row
        row_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=row_ptr[1:])
        return row_ptr, cells.astype(np.int64), self.L[rows, cells]

    def to_edge_set(self) -> EdgeSet:
        """The dict-row view of the current state (leaf targets keyed
        by node id ``n + cell``, open targets by final node id) --
        bit-identical to the dict algorithm at the same iteration."""
        n = self.n
        edges: EdgeSet = [dict() for _ in range(n)]
        if self.sparse is not None:
            for name, mat, off in (("L", self.L, n), ("F", self.F, 0)):
                indptr, indices, data = mat.indptr, mat.indices, mat.data
                for u in range(n):
                    row = edges[u]
                    for j in range(indptr[u], indptr[u + 1]):
                        row[int(indices[j]) + off] = int(data[j])
        else:
            for u in range(n):
                row = edges[u]
                for c in np.nonzero(self.L[u])[0]:
                    row[int(c) + n] = int(self.L[u, c])
                for v in np.nonzero(self.F[u])[0]:
                    row[int(v)] = int(self.F[u, v])
        return edges


def _reduce_rows(rows: EdgeSet, period: int) -> None:
    """Replace every count in ``rows`` by its :func:`residue`."""
    for row in rows:
        for leaf, x in row.items():
            if x > period:
                row[leaf] = residue(x, period)


def _rounds(depth: int) -> int:
    """The ``ceil(log2(depth))`` rounds path doubling needs."""
    return (depth - 1).bit_length() if depth > 1 else 0


def _report(result: CAPResult, root) -> CAPResult:
    """Record a level-pass or DP result on the root span and the
    ``cap.iterations`` / ``cap.edge_work`` counters."""
    if root is not None:
        root.set_attribute("iterations", result.iterations)
        root.set_attribute("edge_work", result.edge_work)
    registry = get_registry()
    if registry is not None:
        registry.counter("cap.iterations").inc(result.iterations)
        registry.counter("cap.edge_work").inc(result.edge_work)
    return result


def _dependence_order(graph: DependenceGraph) -> Optional[np.ndarray]:
    """``None`` when every final-node operand precedes its reader (the
    order both DPs count in; one vectorized test), else the final nodes
    in an order that does (Kahn's algorithm).  A cycle raises
    :class:`~repro.errors.CyclicDependenceError` naming it."""
    if graph.index_ordered():
        return None
    n = graph.n
    readers: List[List[int]] = [[] for _ in range(n)]
    waiting = [0] * n
    for i, pair in enumerate(zip(graph.target_f.tolist(), graph.target_h.tolist())):
        for t in set(pair):
            if t < n:
                readers[t].append(i)
                waiting[i] += 1
    ready = deque(i for i in range(n) if not waiting[i])
    order: List[int] = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for r in readers[i]:
            waiting[r] -= 1
            if not waiting[r]:
                ready.append(r)
    if len(order) < n:
        graph.validate_acyclic()  # raises, naming the cycle
    return np.asarray(order, dtype=np.int64)


def _renumbered(graph: DependenceGraph, order: np.ndarray) -> DependenceGraph:
    """``graph`` with final node ``order[k]`` renamed ``k`` (leaves keep
    their ids)."""
    n = graph.n
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n, dtype=np.int64)
    targets = [
        np.where(t < n, new_id[np.minimum(t, n - 1)], t)
        for t in (graph.target_f[order], graph.target_h[order])
    ]
    return DependenceGraph(n=n, m=graph.m, target_f=targets[0], target_h=targets[1])


def _dp_with_work(
    graph: DependenceGraph, period: Optional[int] = None
) -> "tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], int, Optional[int]]":
    """:func:`_dp_in_index_order`, on ``graph`` renumbered into
    dependence order when it is not index-ordered; the rows come back
    in ``graph``'s own node order."""
    order = _dependence_order(graph)
    if order is None:
        return _dp_in_index_order(graph, period)
    work_graph = _renumbered(graph, order)
    (row_ptr, cells, counts), work, period = _dp_in_index_order(work_graph, period)
    graph._depth = work_graph._depth
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size, dtype=np.int64)
    lengths = np.diff(row_ptr)[new_id]
    take = _ragged(row_ptr[:-1][new_id], lengths, int(lengths.sum()))
    ptr = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return (ptr, cells[take], counts[take]), work, period


def _dp_in_index_order(
    graph: DependenceGraph, period: Optional[int] = None
) -> "tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], int, Optional[int]]":
    """CAP by the sequential DP, in index order: the leaf block as CSR
    arrays ``(row_ptr, cells, counts)``, the composition count (the
    row entries merged from finished final nodes, the DP's work
    measure) and the period the counts were reduced by (``None``:
    exact).  The same loop records every node's level, so
    ``graph.depth()`` is cached without a second scan.

    A row is a tuple of leaf ids, strictly increasing, and its counts,
    a slice of one flat list that every row is appended to in index
    order.  Rows with equal keys share one tuple, so the common merges
    copy no keys: operands of equal keys (every Fibonacci row, and a
    doubled operand) append their summed counts straight from the flat
    list, entry by entry, and a leaf already in the row adds one to a
    copied slice; only rows of different keys pay for a dict merge and
    a sort.  A finished row leaves no container of its own behind
    (key tuples are shared, or hold only ints and drop out of the
    collector's view), so the rows do not set off the cyclic garbage
    collector, which would walk the caller's whole heap each time.
    The flat list is the CSR ``counts`` (``np.fromiter``: int64, or
    object -- exact Python ints -- when a count leaves int64 and there
    is no period), and the key tuples chained are its ``cells``.

    With a ``period``, the first row holding a count past int64 turns
    reduction on: that row and every later one fold :func:`residue`
    into their merge, so counts stay small ints, and the earlier rows
    (which fit int64) are reduced at the end, in one array pass."""
    n = graph.n
    tf, th = graph.target_f.tolist(), graph.target_h.tolist()
    # row i is flat[start[i]:start[i + 1]], counts of the leaves keys[i]
    keys: List[Tuple[int, ...]] = [()] * n
    start = [0] * (n + 1)
    flat: List[int] = []
    append = flat.append
    level = [0] * n
    work = 0
    p = None  # the period, once reduction is on
    reduce_from = n
    watch = period is not None
    for i in range(n):
        a, b = tf[i], th[i]
        if a > b:  # operands commute: a final node comes first
            a, b = b, a
        if a >= n:  # two leaves
            k, v = ((a,), [2]) if a == b else ((a, b), [1, 1])
            level[i] = 1
            flat += v if p is None else [(x - 1) % p + 1 for x in v]
        elif b >= n:  # a final node and a leaf
            k = keys[a]
            s = start[a]
            v = flat[s : s + len(k)]
            work += len(k)
            level[i] = level[a] + 1
            j = bisect_left(k, b)
            if j < len(k) and k[j] == b:
                v[j] += 1
            else:
                k = k[:j] + (b,) + k[j:]
                v.insert(j, 1)
            flat += v if p is None else [(x - 1) % p + 1 for x in v]
        else:  # two final nodes
            k, kb = keys[a], keys[b]
            s, sb = start[a], start[b]
            la, lb = level[a], level[b]
            level[i] = (la if la > lb else lb) + 1
            if k is kb or k == kb:  # equal keys, a doubled operand too
                work += len(k) if a == b else 2 * len(k)
                d = sb - s
                if p is None:
                    for j in range(s, s + len(k)):
                        append(flat[j] + flat[j + d])
                else:
                    for j in range(s, s + len(k)):
                        append((flat[j] + flat[j + d] - 1) % p + 1)
            else:
                work += len(k) + len(kb)
                acc = dict(zip(k, flat[s : s + len(k)]))
                get = acc.get
                for t, y in zip(kb, flat[sb : sb + len(kb)]):
                    acc[t] = get(t, 0) + y
                if len(acc) == len(kb):  # k within kb
                    k = kb
                elif len(acc) != len(k):  # neither within the other
                    k = tuple(sorted(acc))
                if p is None:
                    flat += map(acc.__getitem__, k)
                else:
                    flat += [(acc[t] - 1) % p + 1 for t in k]
        keys[i] = k
        start[i + 1] = len(flat)
        if watch and max(flat[start[i] :]) > _INT64_MAX:
            watch = False
            p, reduce_from = period, i
            flat[start[i] :] = [(x - 1) % p + 1 for x in flat[start[i] :]]
    graph._depth = max(level) if n else 0
    row_ptr = np.array(start, dtype=np.int64)
    nnz = len(flat)
    cells = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=nnz)
    cells -= n
    try:
        counts = np.fromiter(flat, dtype=np.int64, count=nnz)
    except OverflowError:  # exact counts past int64 (no period)
        counts = np.array(flat, dtype=object)
    if p is not None:
        head = int(row_ptr[reduce_from])
        counts[:head] = residue(counts[:head], p)
    return (row_ptr, cells, counts), work, p


def _dp_result(graph: DependenceGraph, root, period: Optional[int]) -> CAPResult:
    """CAP by the sequential DP."""
    leaf_csr, work, period = _dp_with_work(graph, period)
    return _report(
        CAPResult(
            iterations=_rounds(graph.depth()),
            edge_work=work,
            leaf_csr=leaf_csr,
            period=period,
            method="dp",
        ),
        root,
    )


def deep_chain(up: np.ndarray) -> bool:
    """Whether some node has an ancestor ``2**6 = 64`` steps up -- a
    chain deeper than :data:`_LEVEL_MAX_DEPTH` -- where ``up[i]`` is
    node ``i``'s parent and the last slot, its own parent, stands for
    "none".  Pointer jumping: ``log2`` of the limit gathers."""
    sentinel = up.shape[0] - 1
    for _ in range((_LEVEL_MAX_DEPTH - 1).bit_length()):
        up = up[up]
    return bool(np.any(up[:sentinel] < sentinel))


def node_levels(graph: DependenceGraph) -> Optional[np.ndarray]:
    """Every final node's level -- the longest path from it to a leaf,
    in edges -- as int8, or ``None`` when the graph is deeper than
    :data:`_LEVEL_MAX_DEPTH`.

    Relaxation: after sweep ``k`` every node holds ``min(level, k)``,
    so the sweeps stop one past the depth.  A chain of single operands
    longer than the limit is found first, by pointer jumping along
    each operand (``log2`` of the limit gathers), so a deep chain-like
    graph costs a few gathers, not the limit's worth of sweeps.  (A
    graph whose ``node * m + cell`` merge keys could leave int64 is
    also left to the DP.)"""
    n = graph.n
    limit = _LEVEL_MAX_DEPTH
    if n * graph.m > _INT64_MAX:
        return None
    targets = [np.minimum(t, n) for t in (graph.target_f, graph.target_h)]
    if any(deep_chain(np.append(t, n)) for t in targets):  # slot n: every leaf
        return None
    level = np.zeros(n + 1, dtype=np.int8)
    swept = np.empty(n, dtype=np.int8)
    for _ in range(limit + 1):
        np.maximum(level[targets[0]], level[targets[1]], out=swept)
        swept += 1
        if np.array_equal(swept, level[:n]):
            graph._depth = int(swept.max()) if n else 0
            return swept
        level[:n] = swept
    return None


def _ragged(starts: np.ndarray, lengths: np.ndarray, total: int) -> np.ndarray:
    """The indices ``starts[j] .. starts[j] + lengths[j] - 1``, all
    ``j`` in order."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(total)


def _level_pass(graph: DependenceGraph, level: np.ndarray) -> CAPResult:
    """CAP bottom-up, one dependence level at a time.

    Rows live in one growing buffer pair (``cells``, ``counts``); leaf
    ``n + c`` is the row ``(c, 1)`` stored up front, so both operands
    of a node are gathered alike.  A level's gathered entries form two
    runs sorted by ``(node, cell)`` -- its ``f`` rows and its ``h``
    rows -- so one stable sort merges them, and ``np.add.reduceat``
    sums the entries of equal key.  A node whose operands coincide
    gathers its row once, doubled, as the DP does, so ``edge_work``
    (entries gathered from final-node rows) equals the DP's."""
    n, m = graph.n, graph.m
    tf, th = graph.target_f, graph.target_h
    depth = graph.depth()
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(1, depth + 2))
    cells = np.empty(m + 4 * n, dtype=np.int64)
    counts = np.empty_like(cells)
    cells[:m] = np.arange(m)
    counts[:m] = 1
    used = m
    start = np.empty(n + m, dtype=np.int64)
    length = np.empty(n + m, dtype=np.int64)
    start[n:] = np.arange(m)
    length[n:] = 1
    work = 0
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        nodes = by_level[lo:hi]
        a, b = tf[nodes], th[nodes]
        twice = a == b
        h_rank = np.flatnonzero(~twice)
        b = b[h_rank]
        a_len, b_len = length[a], length[b]
        work += int(a_len[a < n].sum()) + int(b_len[b < n].sum())
        na, nb = int(a_len.sum()), int(b_len.sum())
        keys = np.empty(na + nb, dtype=np.int64)
        keys[:na] = np.repeat(np.arange(nodes.size), a_len)
        keys[na:] = np.repeat(h_rank, b_len)
        at = np.empty(na + nb, dtype=np.int64)
        at[:na] = _ragged(start[a], a_len, na)
        at[na:] = _ragged(start[b], b_len, nb)
        keys *= m
        keys += cells[at]
        vals = counts[at]
        if h_rank.size < nodes.size:
            vals[:na] <<= np.repeat(twice, a_len)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        first = np.flatnonzero(first)
        merged = np.add.reduceat(vals[order], first)
        keys = keys[first]
        rank = keys // m
        row_len = np.bincount(rank, minlength=nodes.size)
        end = used + merged.size
        if end > cells.size:
            cells = _grown(cells, used, end)
            counts = _grown(counts, used, end)
        np.subtract(keys, rank * m, out=cells[used:end])
        counts[used:end] = merged
        start[nodes] = used + np.cumsum(row_len) - row_len
        length[nodes] = row_len
        used = end
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length[:n], out=row_ptr[1:])
    at = _ragged(start[:n], length[:n], int(row_ptr[-1]))
    return CAPResult(
        iterations=_rounds(depth),
        edge_work=work,
        leaf_csr=(row_ptr, cells[at], counts[at]),
        method="levels",
    )


def _grown(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buf``'s first ``used`` entries in a buffer of at least
    ``need``, doubling the capacity."""
    out = np.empty(max(2 * buf.size, need), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def count_all_paths(
    graph: DependenceGraph,
    *,
    max_iterations: Optional[int] = None,
    policy: Optional[SolvePolicy] = None,
    validate: bool = True,
    method: str = "auto",
    period: Optional[int] = None,
) -> CAPResult:
    """Run CAP to convergence (all edges reach leaves).

    ``max_iterations`` is a safety valve for tests; the algorithm
    provably converges within ``ceil(log2(graph.depth()))`` iterations
    -- *for a DAG*.  A cyclic graph would double forever, so the graph
    is checked up front (``validate=False`` skips the O(n + e) check
    for graphs known acyclic by construction) and a cycle raises
    :class:`~repro.errors.CyclicDependenceError` naming it.

    ``policy`` bounds the doubling loop; on exhaustion it raises,
    falls back to the sequential :func:`count_paths_dp` ground truth,
    or returns the current partially doubled edge sets, per its
    ``on_exhaustion`` behaviour.

    ``method`` selects the backend: ``"matrix"`` (the L/F counting-
    matrix recurrence -- scipy CSR, dense numpy, or pure-Python rows,
    in that order of preference), ``"edges"`` (the historical dict
    doubling), ``"dp"`` (sequential forward DP, no doubling rounds) or
    ``"auto"``.  All produce identical ``powers``; matrix and edges
    also share iteration counts, work accounting, partial states and
    policy behaviour exactly.  An unbounded ``"auto"`` run takes the
    level pass on graphs of depth <= 62 and the DP on deeper ones; a
    bounded one doubles on the matrix recurrence.

    ``period`` (an operator's ``power_period``) makes an unbounded run
    whose exact counts would leave int64 return every count as its
    :func:`residue` modulo ``period`` (``CAPResult.period`` says so);
    iteration and work counts are those of the exact run.  A bounded
    run ignores it and counts exactly.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown CAP method {method!r}; expected one of {_METHODS}"
        )
    if validate:
        graph.validate_acyclic()
    unbounded = max_iterations is None and policy is None
    if not unbounded:
        period = None  # partial states are exact doubling-round states
    enforcer = policy.enforcer("cap") if policy is not None else None
    tracer = get_tracer()
    registry = get_registry()
    with maybe_span(tracer, "cap.count_all_paths", n=graph.n) as root:
        if unbounded and method == "auto":
            level = node_levels(graph)
            if level is not None:
                return _report(_level_pass(graph, level), root)
            method = "dp"
        if unbounded and method == "dp":
            return _dp_result(graph, root, period)

        state: Optional[_MatrixState] = None
        edges: Optional[EdgeSet] = None
        if method != "edges":
            # (a bounded "dp" request still has to double: partial
            # states and enforcer budgets are doubling-round notions)
            sparse_mod = _scipy_sparse()
            if sparse_mod is not None or graph.n + graph.m <= _DENSE_MAX_NODES:
                state = _MatrixState(graph, sparse_mod)
            else:
                edges = _initial_edges(graph)
        else:
            edges = _initial_edges(graph)
        iterations = 0
        total_work = 0
        per_iteration: List[int] = []
        while True:
            if state is not None:
                if state.converged():
                    break
            elif all(all(v >= graph.n for v in e) for e in edges):
                break
            if max_iterations is not None and iterations >= max_iterations:
                break
            if enforcer is not None and not enforcer.admit():
                break
            if state is not None and state.overflow_risk():
                # doubling-round states stay exact: go on in Python ints
                edges = state.to_edge_set()
                state = None
            with maybe_span(
                tracer, "cap.iteration", iteration=iterations
            ) as isp:
                if state is not None:
                    work = state.step()
                else:
                    edges, work, _converged = _doubling_step(edges, graph)
                total_work += work
                per_iteration.append(work)
                iterations += 1
                if isp is not None:
                    isp.set_attribute("compositions", work)
            if registry is not None:
                live = (
                    state.live_edges()
                    if state is not None
                    else sum(len(e) for e in edges)
                )
                registry.counter("cap.iterations").inc()
                registry.counter("cap.edge_work").inc(work)
                registry.gauge("cap.edges_live").set(live)
        if root is not None:
            root.set_attribute("iterations", iterations)
            root.set_attribute("edge_work", total_work)
        leaf_csr = None
        route = "doubling"
        if enforcer is not None and enforcer.should_fallback:
            edges, route = count_paths_dp(graph), "dp"
        elif state is not None and state.converged():
            edges, leaf_csr = None, state.leaf_csr()
        elif state is not None:  # a partial state keeps its open prefixes
            edges = state.to_edge_set()
        if period is not None:
            # unbounded, hence converged; only dict doubling's exact
            # rows can hold counts past int64
            if leaf_csr is None and any(
                x > _INT64_MAX for row in edges for x in row.values()
            ):
                _reduce_rows(edges, period)
            else:
                period = None
        return CAPResult(
            iterations=iterations,
            edge_work=total_work,
            work_per_iteration=per_iteration,
            leaf_csr=leaf_csr,
            period=period,
            method=route,
            _rows=edges,
        )


def cap_iterations(graph: DependenceGraph) -> Iterator[EdgeSet]:
    """Yield the edge set before the first iteration and after every
    subsequent one, until convergence -- the Fig-9 storyboard."""
    tracer = get_tracer()
    registry = get_registry()
    edges = _initial_edges(graph)
    yield [dict(e) for e in edges]
    iteration = 0
    while not all(all(v >= graph.n for v in e) for e in edges):
        with maybe_span(tracer, "cap.iteration", iteration=iteration) as isp:
            edges, work, _conv = _doubling_step(edges, graph)
            if isp is not None:
                isp.set_attribute("compositions", work)
        if registry is not None:
            registry.counter("cap.iterations").inc()
            registry.counter("cap.edge_work").inc(work)
            registry.gauge("cap.edges_live").set(sum(len(e) for e in edges))
        iteration += 1
        yield [dict(e) for e in edges]


def count_paths_dp(graph: DependenceGraph) -> EdgeSet:
    """Sequential ground truth: leaf path counts by forward dynamic
    programming, entirely independent of the doubling algorithm.
    O(n * leaves).  It counts in index order, where operands point to
    earlier iterations; a hand-built graph that breaks that order is
    counted renumbered into dependence order (a cycle raises
    :class:`~repro.errors.CyclicDependenceError`)."""
    order = _dependence_order(graph)
    if order is not None:
        rows = count_paths_dp(_renumbered(graph, order))
        out: EdgeSet = [dict() for _ in range(graph.n)]
        for k, i in enumerate(order.tolist()):
            out[i] = rows[k]
        return out
    n = graph.n
    counts: EdgeSet = [dict() for _ in range(n)]
    for i in range(n):
        acc: Dict[int, int] = {}
        for t, mult in graph.out_edges(i).items():
            if t >= n:
                acc[t] = acc.get(t, 0) + mult
            else:
                for leaf, x in counts[t].items():
                    acc[leaf] = acc.get(leaf, 0) + mult * x
        counts[i] = acc
    return counts
