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
and ``F_t = A^{2^t}`` exactly.  This module runs that recurrence on

* ``scipy.sparse`` int64 CSR matrices when SciPy is importable
  (dependence DAGs have out-degree <= 2, so the state stays sparse),
* dense ``numpy`` int64 matrices for small graphs without SciPy,
* the pure-Python sparse rows (the historical dict ``EdgeSet`` --
  literally a CSR matrix with dict rows) as the last resort, and as
  the **object-dtype promotion** target of a bounded run: path
  counts grow Fibonacci-fast, and the moment an upcoming product
  could exceed int64 the whole state is converted to dict rows over
  exact Python ints and the loop continues there bit-for-bit.  An
  unbounded ``method="auto"`` run finishes on the sequential DP
  instead (exact, and linear where doubling dense big-int rows is
  quadratic).

A converged int64 matrix run hands its leaf block ``L`` out as CSR
arrays (:attr:`CAPResult.leaf_csr`) -- the planner builds the power
table from them without a Python pass -- and :attr:`CAPResult.powers`
stays the dict-row :class:`EdgeSet` view, built lazily, so the
checker, the PRAM profile and every historical test compare against
the same representation.

Deep graphs are the one shape doubling handles badly: each round
copies every live prefix, so a chain of depth ``d`` costs ``O(n*d)``
label work regardless of representation.  ``method="auto"`` therefore
falls back to the sequential DP (:func:`count_paths_dp`) beyond
:data:`DP_DEPTH_CUTOFF`; the reported ``iterations`` is the
``ceil(log2(depth))`` rounds the doubling schedule would have used
(the plan-level quantity), while ``work_per_iteration`` is empty since
no doubling rounds ran.

A memoized sequential DP (:func:`count_paths_dp`) provides independent
ground truth for the tests, and :func:`cap_iterations` exposes the
round-by-round edge sets for the Fig-9 benchmark.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field
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
    "DP_DEPTH_CUTOFF",
]

EdgeSet = List[Dict[int, int]]  # per final node: {target: path count}

#: ``method="auto"`` switches from path doubling to the sequential DP
#: when the DAG is deeper than this: doubling work is O(n * depth) on
#: chain-like graphs, so at production sizes (the Fig-5 workload at
#: n >= 100k has depth n) the DP is the only feasible planner.
DP_DEPTH_CUTOFF = 4096

#: Without SciPy, dense matrices are used only up to this many nodes
#: (n + m); past it the pure-Python sparse rows take over.
_DENSE_MAX_NODES = 2048

#: Promote to exact Python ints before any product could reach this.
_INT64_GUARD = 2**62

_METHODS = ("auto", "matrix", "edges", "dp")


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
        Number of path-doubling iterations executed (for
        ``method="dp"``: the rounds the doubling schedule would need,
        ``ceil(log2(depth))``).
    edge_work:
        Total number of edge compositions performed across all
        iterations (the algorithm's work measure, consumed by the PRAM
        cost accounting).
    work_per_iteration:
        Edge compositions per doubling iteration -- the per-superstep
        active counts the processor-bounded (Brent) accounting needs.
        Empty when the DP ran instead of doubling rounds.
    leaf_csr:
        When the matrix recurrence converged in int64: the leaf block
        ``L`` as CSR arrays ``(row_ptr, cells, counts)`` -- int64 row
        pointers, leaf cells strictly increasing per row, int64 path
        counts.  ``None`` when the result was computed as dict rows
        (dict doubling, the DP, an overflow promotion, a partial
        state).
    """

    iterations: int
    edge_work: int = 0
    work_per_iteration: List[int] = field(default_factory=list)
    leaf_csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
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


def _choose_method(graph: DependenceGraph, bounded: bool) -> str:
    """Pick the CAP backend for ``method="auto"``.

    ``bounded`` solves (max_iterations / policy) always double, so the
    partial-state and enforcer semantics stay exact; otherwise deep
    graphs take the DP escape hatch and the matrix recurrence serves
    the rest (scipy CSR, or dense numpy for small graphs without
    scipy, or the pure-Python dict rows).
    """
    if not bounded and graph.depth() > DP_DEPTH_CUTOFF:
        return "dp"
    if _scipy_sparse() is not None:
        return "matrix"
    if graph.n + graph.m <= _DENSE_MAX_NODES:
        return "matrix"
    return "edges"


def _dp_with_work(graph: DependenceGraph) -> "tuple[EdgeSet, int]":
    """:func:`count_paths_dp` plus its composition count (one per
    leaf-count multiply-accumulate, the DP's work measure)."""
    n = graph.n
    counts: EdgeSet = [dict() for _ in range(n)]
    work = 0
    for i in range(n):
        acc: Dict[int, int] = {}
        for t, mult in graph.out_edges(i).items():
            if t >= n:
                acc[t] = acc.get(t, 0) + mult
            else:
                for leaf, x in counts[t].items():
                    acc[leaf] = acc.get(leaf, 0) + mult * x
                    work += 1
        counts[i] = acc
    return counts, work


def _dp_result(graph: DependenceGraph, root) -> CAPResult:
    """CAP by the sequential DP, reporting the ``ceil(log2(depth))``
    rounds the doubling schedule would have used (the plan-level
    quantity) and no doubling rounds."""
    powers, work = _dp_with_work(graph)
    depth = graph.depth()
    iterations = (depth - 1).bit_length() if depth > 1 else 0
    if root is not None:
        root.set_attribute("iterations", iterations)
        root.set_attribute("edge_work", work)
    return CAPResult(
        _rows=powers, iterations=iterations, edge_work=work, work_per_iteration=[]
    )


def count_all_paths(
    graph: DependenceGraph,
    *,
    max_iterations: Optional[int] = None,
    policy: Optional[SolvePolicy] = None,
    validate: bool = True,
    method: str = "auto",
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
    ``"auto"``.  All three produce identical ``powers``; matrix and
    edges also share iteration counts, work accounting, partial states
    and policy behaviour exactly.  An unbounded ``"auto"`` run whose
    counting matrix would overflow int64 finishes on the DP.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown CAP method {method!r}; expected one of {_METHODS}"
        )
    if validate:
        graph.validate_acyclic()
    unbounded = max_iterations is None and policy is None
    # Only the planner's own pick may trade the doubling rounds for
    # the DP mid-run; an explicit method keeps its round accounting.
    finish_on_dp = unbounded and method == "auto"
    if method == "auto":
        method = _choose_method(graph, bounded=not unbounded)
    enforcer = policy.enforcer("cap") if policy is not None else None
    tracer = get_tracer()
    registry = get_registry()
    with maybe_span(tracer, "cap.count_all_paths", n=graph.n) as root:
        if method == "dp" and unbounded:
            return _dp_result(graph, root)

        state: Optional[_MatrixState] = None
        edges: Optional[EdgeSet] = None
        if method in ("matrix", "dp"):
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
                if finish_on_dp:
                    # Doubling dense big-int rows is quadratic; the DP
                    # reaches the same exact counts in one linear pass.
                    return _dp_result(graph, root)
                # A bounded solve's partial states are doubling-round
                # states: continue on exact Python ints.
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
        if enforcer is not None and enforcer.should_fallback:
            edges = count_paths_dp(graph)
        elif state is not None and state.converged():
            edges, leaf_csr = None, state.leaf_csr()
        elif state is not None:  # a partial state keeps its open prefixes
            edges = state.to_edge_set()
        return CAPResult(
            iterations=iterations,
            edge_work=total_work,
            work_per_iteration=per_iteration,
            leaf_csr=leaf_csr,
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
    programming (operands always point to earlier iterations), entirely
    independent of the doubling algorithm.  O(n * leaves)."""
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
