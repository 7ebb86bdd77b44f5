"""Differential suite for CAP's sequential DP (graphs deeper than 62).

The DP keeps each row as a tuple of leaf ids plus a list of counts,
folds the period's residue into every merge once a count leaves int64,
and hands over its leaf block as CSR arrays.  Its power table must
equal, array for array, the table of the dict-row DP it replaced
(:func:`_dict_dp`, kept here verbatim as the reference) flattened by
``PowerTable.from_node_rows``, and :func:`count_paths_dp`'s counts --
reduced by :func:`residue` wherever the result carries a period.
Row pointers, cells, exponents (values and dtype), period, edge work,
iterations and the cached depth are all compared.
"""

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cap as cap_module
from repro.core.cap import count_all_paths, count_paths_dp, residue
from repro.core.depgraph import DependenceGraph, build_dependence_graph
from repro.core.equations import normalize_non_distinct
from repro.core.operators import modular_add, modular_mul
from repro.core.workloads import (
    double_chain_gir_system,
    fibonacci_gir_system,
    scatter_system,
)
from repro.engine.plan import PowerTable

P = 10**9 + 7
INT64_MAX = 2**63 - 1


def _graph(system):
    if not system.g_is_distinct():
        system = normalize_non_distinct(system).system
    return build_dependence_graph(system)


def _fresh(graph):
    """``graph`` without its cached depth, so each run fills its own."""
    return DependenceGraph(
        n=graph.n, m=graph.m, target_f=graph.target_f, target_h=graph.target_h
    )


def _dict_dp(graph, period=None):
    """The dict-row DP the array DP replaced: ``(rows, work, period,
    depth)``.  The first row holding a count past int64 turns reduction
    on for itself and every later row; earlier rows are reduced at the
    end."""
    n = graph.n
    tf, th = graph.target_f.tolist(), graph.target_h.tolist()
    counts = [dict() for _ in range(n)]
    level = [0] * n
    work = 0
    reduce_from = None

    def reduce(row):
        for leaf, x in row.items():
            if x > period:
                row[leaf] = residue(x, period)

    for i in range(n):
        a, b = tf[i], th[i]
        acc: Dict[int, int] = {}
        below = 0
        for t, mult in ((a, 2),) if a == b else ((a, 1), (b, 1)):
            if t >= n:
                acc[t] = acc.get(t, 0) + mult
            else:
                below = max(below, level[t])
                row = counts[t]
                work += len(row)
                for leaf, x in row.items():
                    acc[leaf] = acc.get(leaf, 0) + mult * x
        level[i] = below + 1
        if period is not None:
            if reduce_from is None and max(acc.values()) > INT64_MAX:
                reduce_from = i
            if reduce_from is not None:
                reduce(acc)
        counts[i] = acc
    depth = max(level) if n else 0
    if reduce_from is None:
        return counts, work, None, depth
    for row in counts[:reduce_from]:
        reduce(row)
    return counts, work, period, depth


def _assert_same_table(got, want):
    assert np.array_equal(got.row_ptr, want.row_ptr)
    assert got.row_ptr.dtype == want.row_ptr.dtype == np.int64
    assert np.array_equal(got.cells, want.cells)
    assert got.cells.dtype == want.cells.dtype == np.int64
    assert got.exponents.dtype == want.exponents.dtype
    assert got.exponent_list() == want.exponent_list()
    assert got.period == want.period


def _check(graph, period=None):
    """The DP's table against the dict DP's and the oracle's; returns
    the DP's :class:`CAPResult`."""
    graph = _fresh(graph)
    got = count_all_paths(graph, method="dp", period=period)
    assert got.method == "dp"
    assert got.work_per_iteration == []
    table = PowerTable.from_cap(got, graph.n)

    rows, work, want_period, depth = _dict_dp(graph, period)
    _assert_same_table(
        table, PowerTable.from_node_rows(rows, graph.n, period=want_period)
    )
    assert got.edge_work == work
    assert graph.depth() == depth
    assert got.iterations == ((depth - 1).bit_length() if depth > 1 else 0)
    assert _fresh(graph).depth() == depth  # the scan agrees with the cache

    exact = count_paths_dp(graph)
    if got.period is None:
        assert got.powers == exact
    else:
        assert got.powers == [
            {leaf: residue(k, period) for leaf, k in row.items()} for row in exact
        ]
    return got


def _zigzag(n):
    """Node ``i`` reads node ``i - 1`` through ``f`` when ``i`` is even,
    through ``h`` when odd, and a leaf through the other: ``n`` deep."""
    idx = np.arange(n)
    prev = np.where(idx > 0, idx - 1, n)
    leaf = n + 1 + idx % 3
    even = idx % 2 == 0
    return DependenceGraph(
        n=n,
        m=4,
        target_f=np.where(even, prev, leaf),
        target_h=np.where(even, leaf, prev),
    )


class TestFibonacci:
    @pytest.mark.parametrize(
        "op", [modular_add(P), modular_mul(P)], ids=["add", "mul"]
    )
    def test_reduced_past_int64(self, op):
        graph = _graph(fibonacci_gir_system(400, op=op))
        got = _check(graph, period=op.power_period)
        assert got.period == op.power_period
        assert got.leaf_csr[2].dtype == np.int64

    def test_exact_without_a_period(self):
        graph = _graph(fibonacci_gir_system(300))
        got = _check(graph)
        assert got.period is None
        assert got.leaf_csr[2].dtype == object
        assert all(type(x) is int for x in got.leaf_csr[2])

    def test_fits_int64_stays_exact(self):
        graph = _graph(fibonacci_gir_system(80, op=modular_add(P)))
        got = _check(graph, period=P)
        assert got.period is None and got.leaf_csr[2].dtype == np.int64

    def test_auto_routes_deep_graphs_here(self):
        graph = _graph(fibonacci_gir_system(200, op=modular_add(P)))
        auto = count_all_paths(_fresh(graph), period=P)
        dp = count_all_paths(_fresh(graph), period=P, method="dp")
        assert auto.method == "dp"
        _assert_same_table(
            PowerTable.from_cap(auto, graph.n), PowerTable.from_cap(dp, graph.n)
        )


class TestDoubleChain:
    """``x[i+1] = x[i] * x[i]``: every node doubles one operand row."""

    def test_depth_63_exact_is_an_object_column(self):
        graph = _graph(double_chain_gir_system(63))
        got = _check(graph)
        assert graph.depth() == 63
        assert got.leaf_csr[2].dtype == object
        assert got.leaf_csr[2][-1] == 2**63

    def test_depth_63_reduced(self):
        graph = _graph(double_chain_gir_system(63))
        got = _check(graph, period=P)
        assert got.period == P and got.leaf_csr[2][-1] == residue(2**63, P)

    @pytest.mark.parametrize("period", [1, 2, 3, 97])
    def test_small_periods_reduce_every_late_row(self, period):
        _check(_graph(double_chain_gir_system(90)), period=period)


@pytest.mark.parametrize("n", [63, 90])
@pytest.mark.parametrize("period", [None, P])
def test_zigzag(n, period):
    got = _check(_zigzag(n), period=period)
    assert got.period is None  # counts grow linearly


@pytest.mark.parametrize(
    "n, cells, seed",
    [(600, 24, 1), (1500, 40, 2), (800, 8, 3), (3000, 120, 4)],
)
@pytest.mark.parametrize("period", [None, P - 1])
def test_renamed_scatter_graphs(n, cells, seed, period):
    graph = _graph(scatter_system(n, cells, seed=seed, op=modular_mul(P)))
    assert graph.depth() > 62
    got = _check(graph, period=period)
    assert int(np.diff(got.leaf_csr[0]).max()) >= 8  # wide rows


def _deep_random(n, leaves, seed):
    """A random DAG threaded on a chain (so it is ``n`` deep): node
    ``i`` reads node ``i - 1`` and a random earlier node or leaf; some
    nodes read one operand twice, some a leaf beside a final node."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    chain = np.where(idx > 0, idx - 1, n)
    other = rng.integers(0, n + leaves, size=n)
    other = np.where(other < idx, other, n + other % leaves)
    other = np.where(rng.random(n) < 0.1, chain, other)  # a == b
    swap = rng.random(n) < 0.5
    return DependenceGraph(
        n=n,
        m=leaves,
        target_f=np.where(swap, other, chain),
        target_h=np.where(swap, chain, other),
    )


@given(
    n=st.integers(min_value=63, max_value=160),
    leaves=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    period=st.sampled_from([None, 1, 2, 97, P]),
)
@settings(max_examples=40, deadline=None)
def test_random_deep_graphs(n, leaves, seed, period):
    _check(_deep_random(n, leaves, seed), period=period)


def test_doubled_leaf_and_mixed_operands():
    """Node 0 doubles a leaf, node 1 reads two leaves, node 2 a final
    node beside a leaf it already holds, node 3 one beside a new leaf,
    node 4 doubles a final node, node 5 merges rows of different keys;
    then a chain long enough to pass the level pass's limit."""
    n, m = 80, 4
    tf = [n + 0, n + 2, 0, 1, 3, 4] + list(range(5, n - 1))
    th = [n + 0, n + 1, n + 0, n + 3, 3, 2] + [n + 1] * (n - 6)
    graph = DependenceGraph(
        n=n, m=m, target_f=np.array(tf), target_h=np.array(th)
    )
    got = _check(graph)
    assert got.powers[0] == {n: 2}
    assert got.powers[2] == {n: 3}
    assert got.powers[3] == {n + 1: 1, n + 2: 1, n + 3: 1}
    assert got.powers[4] == {n + 1: 2, n + 2: 2, n + 3: 2}
    assert got.powers[5] == {n: 3, n + 1: 2, n + 2: 2, n + 3: 2}


@pytest.mark.parametrize("period", [1, 2, 3])
def test_every_row_past_the_switch_is_reduced(period):
    """Rows of every merge kind after the first count past int64: a
    doubled leaf, two leaves, a final node beside a leaf it holds and
    beside a new one, a doubled final node, rows of different keys."""
    d = 64  # node 62 is the first to count past int64 (2^63 paths)
    n, m = d + 6, 3
    tf = list(range(-1, d - 1)) + [n + 1, n + 1, d, d + 1, d + 3, d + 4]
    th = list(range(-1, d - 1)) + [n + 1, n + 2, n + 1, n + 0, d + 3, d + 2]
    tf[0] = th[0] = n  # node 0 doubles leaf 0
    graph = DependenceGraph(
        n=n, m=m, target_f=np.array(tf), target_h=np.array(th)
    )
    got = _check(graph, period=period)
    assert got.period == period
    assert all(1 <= x <= period for x in got.leaf_csr[2].tolist())


def test_empty_graph():
    graph = DependenceGraph(
        n=0, m=3, target_f=np.zeros(0, np.int64), target_h=np.zeros(0, np.int64)
    )
    got = _check(graph, period=P)
    assert got.iterations == 0 and got.edge_work == 0
    assert got.leaf_csr[0].tolist() == [0]
    assert got.leaf_csr[1].size == got.leaf_csr[2].size == 0


# ---------------------------------------------------------------------------
# graphs that are not index-ordered
# ---------------------------------------------------------------------------


def _reference(graph):
    """Dict-row doubling: no assumption about node order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cap_module, "_scipy_sparse", lambda: None)
        return count_all_paths(graph, method="matrix").powers


def test_dp_renumbers_a_graph_that_is_not_index_ordered():
    # node 0 reads node 1: index order is not a dependence order
    graph = DependenceGraph(
        n=3, m=3, target_f=np.array([1, 3, 4]), target_h=np.array([3, 4, 5])
    )
    want = [{3: 2, 4: 1}, {3: 1, 4: 1}, {4: 1, 5: 1}]
    assert _reference(graph) == want
    assert count_all_paths(graph, method="matrix").powers == want
    assert count_all_paths(graph).powers == want  # the level pass
    assert count_all_paths(graph, method="dp").powers == want
    assert count_paths_dp(graph) == want
    assert graph.depth() == 2


@pytest.mark.parametrize("period", [None, 7])
def test_deep_graph_that_is_not_index_ordered(period):
    # a reversed Fibonacci: node i reads nodes i + 1 and i + 2, 100 deep,
    # so an unbounded auto run takes the DP (and counts leave int64)
    n = 100
    idx = np.arange(n)
    tf = np.where(idx + 1 < n, idx + 1, n)
    th = np.where(idx + 2 < n, idx + 2, n + 1)
    graph = DependenceGraph(n=n, m=2, target_f=tf, target_h=th)
    want = count_paths_dp(graph)
    assert want == _reference(graph)
    assert max(want[0].values()) > INT64_MAX
    cap = count_all_paths(graph, period=period)
    assert cap.method == "dp" and graph.depth() == n
    if period is None:
        assert cap.powers == want
    else:
        assert cap.period == period
        assert cap.powers == [
            {leaf: residue(k, period) for leaf, k in row.items()} for row in want
        ]


def test_a_cycle_is_refused_by_name():
    from repro.errors import CyclicDependenceError

    graph = DependenceGraph(
        n=2, m=1, target_f=np.array([1, 0]), target_h=np.array([2, 2])
    )
    with pytest.raises(CyclicDependenceError, match="cycle"):
        count_paths_dp(graph)
    with pytest.raises(CyclicDependenceError):
        count_all_paths(graph, method="dp", validate=False)
