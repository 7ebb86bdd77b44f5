"""Dependence-graph construction for GIR loops (paper, section 4).

For the loop ``for i: A[g(i)] := op(A[f(i)], A[h(i)])`` (``g``
distinct) the paper defines a DAG ``G`` whose nodes are

* one *final* node per iteration ``i`` (the value ``A'[g(i)]``), and
* one *initial* node per cell whose pristine value is read (the
  paper writes these ``f(i)^0 / h(i)^0``; we key them by cell).

and whose edges record operand dependences:

* ``<g(i), f(i)>``  when some ``j < i`` assigned ``f(i)`` (the operand
  is iteration ``j``'s result; ``j`` unique since ``g`` is distinct);
* ``<g(i), f(i)^0>`` otherwise (the operand is the initial value);
* and likewise for ``h(i)``.

When ``f(i)`` and ``h(i)`` resolve to the same node, the two edges are
*parallel* and their multiplicities add (paper Fig 8).  The power of
initial value ``A[c]`` inside the trace of ``A'[g(i)]`` equals the
number of distinct paths from node ``i`` down to leaf ``c`` -- which is
what the CAP algorithm (:mod:`repro.core.cap`) counts.

Node encoding: final node of iteration ``i`` is the integer ``i``
(``0 <= i < n``); the initial-value leaf of cell ``c`` is ``n + c``.
This keeps the whole graph in two integer arrays and makes the CAP
inner loops allocation-light.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import CyclicDependenceError
from .equations import GIRSystem, IRValidationError
from .traces import writer_map

__all__ = ["DependenceGraph", "build_dependence_graph", "dependence_graph"]

@dataclass
class DependenceGraph:
    """The GIR dependence DAG in compact form.

    Attributes
    ----------
    n, m:
        Iteration count and array size of the originating system.
    target_f, target_h:
        For each iteration ``i``, the node id its ``f``- and
        ``h``-operand resolves to (an earlier iteration ``j`` or a leaf
        ``n + cell``).
    """

    n: int
    m: int
    target_f: np.ndarray
    target_h: np.ndarray
    _depth: Optional[int] = field(default=None, repr=False, compare=False)

    # -- node helpers -----------------------------------------------------

    def is_leaf(self, node: int) -> bool:
        """Leaves are initial-value nodes (in-degree 0 in the paper's
        orientation; terminal in ours)."""
        return node >= self.n

    def leaf_cell(self, node: int) -> int:
        """The array cell an initial-value leaf stands for."""
        if node < self.n:
            raise ValueError(f"node {node} is a final node, not a leaf")
        return node - self.n

    def node_label(self, node: int) -> str:
        """Human-readable node name for reports (Fig 6 rendering)."""
        if self.is_leaf(node):
            return f"A0[{self.leaf_cell(node)}]"
        return f"it{node}"

    # -- edge views -------------------------------------------------------

    def out_edges(self, node: int) -> Dict[int, int]:
        """Outgoing labeled edges ``{target: multiplicity}`` of a final
        node (leaves have none).  Parallel ``f``/``h`` edges to the
        same target are merged with multiplicity 2."""
        if self.is_leaf(node):
            return {}
        tf, th = int(self.target_f[node]), int(self.target_h[node])
        if tf == th:
            return {tf: 2}
        return {tf: 1, th: 1}

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate ``(source, target, multiplicity)`` over all edges."""
        for i in range(self.n):
            for tgt, mult in self.out_edges(i).items():
                yield i, tgt, mult

    def edge_count(self) -> int:
        """Number of labeled edges (parallel edges merged)."""
        return 2 * self.n - int(np.count_nonzero(self.target_f == self.target_h))

    def leaves(self) -> List[int]:
        """All initial-value nodes actually referenced, ascending."""
        targets = np.concatenate([self.target_f, self.target_h])
        return np.unique(targets[targets >= self.n]).tolist()

    def depth(self) -> int:
        """Longest path (in edges) from any final node to a leaf.

        CAP converges in ``ceil(log2(depth))`` doubling iterations.
        Computed once and cached; CAP's level pass and DP fill the
        cache as they run, so a plan's span attributes and iteration
        count cost no extra scan.  Otherwise one O(n) forward scan over
        the ``tolist()``ed targets (operand targets are always earlier
        iterations or leaves).
        """
        if self._depth is None:
            n = self.n
            d = [1] * n
            for i, (a, b) in enumerate(
                zip(self.target_f.tolist(), self.target_h.tolist())
            ):
                da = d[a] if a < n else 0
                db = d[b] if b < n else 0
                d[i] = (da if da > db else db) + 1
            self._depth = max(d) if n else 0
        return self._depth

    def index_ordered(self) -> bool:
        """Whether every final-node target precedes its source -- the
        acyclicity certificate: index order is then a topological
        order.  Always true for :func:`build_dependence_graph` output;
        one vectorized pass."""
        idx = np.arange(self.n, dtype=np.int64)
        return all(
            bool(np.all((t >= self.n) | ((t >= 0) & (t < idx))))
            for t in (self.target_f, self.target_h)
        )

    def find_cycle(self) -> List[int]:
        """The node ids of one dependence cycle, or ``[]`` when the
        graph is a DAG.

        Graphs built by :func:`build_dependence_graph` are acyclic by
        construction (operand targets always point to *earlier*
        iterations), but hand-built graphs -- and graphs constructed
        from malformed index maps by other front ends -- can cycle, and
        a cycle makes CAP's path doubling diverge.  Iterative
        three-color DFS, O(n + e), run only when the vectorized
        :meth:`index_ordered` certificate fails.
        """
        if self.index_ordered():
            return []
        WHITE, GRAY, BLACK = 0, 1, 2
        color = [WHITE] * self.n
        parent: Dict[int, int] = {}
        for root in range(self.n):
            if color[root] != WHITE:
                continue
            stack: List[Tuple[int, bool]] = [(root, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    color[node] = BLACK
                    continue
                if color[node] == BLACK:
                    continue
                color[node] = GRAY
                stack.append((node, True))
                for tgt in self.out_edges(node):
                    if tgt >= self.n:
                        continue
                    if color[tgt] == GRAY:
                        if tgt == node:
                            return [node]
                        # walk parent chain back to close the cycle
                        cycle = [tgt, node]
                        cur = node
                        while cur != tgt:
                            cur = parent[cur]
                            if cur != tgt:
                                cycle.append(cur)
                        cycle.reverse()
                        return cycle
                    if color[tgt] == WHITE:
                        parent[tgt] = node
                        stack.append((tgt, False))
        return []

    def validate_acyclic(self) -> None:
        """Raise :class:`~repro.errors.CyclicDependenceError` naming
        one cycle when the graph is not a DAG."""
        cycle = self.find_cycle()
        if cycle:
            path = " -> ".join(self.node_label(v) for v in cycle + cycle[:1])
            from ..check.preconditions import graph_cycle_finding

            finding = graph_cycle_finding(cycle, path)
            raise CyclicDependenceError(
                finding.message,
                cycle=cycle,
                findings=[finding],
            )

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` with ``weight`` edge labels
        (multiplicities).  Optional dependency; used in tests."""
        import networkx as nx

        gph = nx.DiGraph()
        for i in range(self.n):
            gph.add_node(i, kind="final")
        for leaf in self.leaves():
            gph.add_node(leaf, kind="initial", cell=self.leaf_cell(leaf))
        for src, tgt, mult in self.edges():
            gph.add_edge(src, tgt, weight=mult)
        return gph


def build_dependence_graph(system: GIRSystem) -> DependenceGraph:
    """Construct the dependence DAG of a distinct-``g`` GIR system.

    O(n + m): one writer-map pass plus one resolution pass.  Raises
    :class:`~repro.core.equations.IRValidationError` on repeated
    assignments (normalize first).
    """
    system.validate()
    if not system.g_is_distinct():
        raise IRValidationError(
            "dependence graph requires distinct g; apply "
            "normalize_non_distinct() first"
        )
    return dependence_graph(system)


def dependence_graph(system: GIRSystem) -> DependenceGraph:
    """:func:`build_dependence_graph` without its checks, for a caller
    that has validated ``system`` and tested ``g`` distinct itself (the
    GIR planner does both once per plan)."""
    n, m = system.n, system.m
    writer = writer_map(system.g, m)

    def resolve(cells: np.ndarray) -> np.ndarray:
        w = writer[cells]
        idx = np.arange(n, dtype=np.int64)
        # operand is the earlier writer when one exists, else a leaf
        return np.where((w >= 0) & (w < idx), w, cells + n)

    return DependenceGraph(
        n=n,
        m=m,
        target_f=resolve(system.f),
        target_h=resolve(system.h),
    )
