"""Differential suite for CAP's level pass.

An unbounded ``method="auto"`` CAP counts paths one dependence level
at a time in NumPy on graphs of depth <= 62 and hands deeper graphs to
the sequential DP.  Its tables must equal :func:`count_paths_dp` and an
explicit ``method="matrix"`` run entry for entry, at the int64 edge
too, and a default solve must never import SciPy.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import obs
from repro.core import cap as cap_module
from repro.core.cap import count_all_paths, count_paths_dp, residue
from repro.core.depgraph import DependenceGraph, build_dependence_graph
from repro.core.equations import normalize_non_distinct
from repro.core.operators import modular_add, modular_mul
from repro.core.workloads import (
    double_chain_gir_system,
    random_gir_system,
    scatter_system,
)

P = 10**9 + 7


def _graph(system):
    if not system.g_is_distinct():
        system = normalize_non_distinct(system).system
    return build_dependence_graph(system)


def _assert_level_pass_exact(graph):
    got = count_all_paths(graph)
    assert got.method == "levels", "the level pass did not run"
    row_ptr, cells, counts = got.leaf_csr
    assert row_ptr.dtype == cells.dtype == counts.dtype == np.int64
    assert got.period is None
    want = count_paths_dp(graph)
    assert got.powers == want  # the dict view of leaf_csr
    matrix = count_all_paths(graph, method="matrix")
    assert matrix.powers == want
    if matrix.leaf_csr is not None:
        for a, b in zip(got.leaf_csr, matrix.leaf_csr):
            assert np.array_equal(a, b)
    return got


GRAPHS = {
    **{
        f"random-{seed}": random_gir_system(400, extra_cells=300, seed=seed)
        for seed in range(6)
    },
    **{
        f"random-repeated-{seed}": random_gir_system(
            300, extra_cells=40, seed=seed, distinct_g=False
        )
        for seed in range(3)
    },
    **{
        f"scatter-{seed}": scatter_system(320, 24, seed=seed, op=modular_mul(P))
        for seed in range(3)
    },
    "double-chain-40": double_chain_gir_system(40),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_level_pass_matches_dp_and_matrix(name):
    graph = _graph(GRAPHS[name])
    assert graph.depth() <= 62
    _assert_level_pass_exact(graph)


@pytest.mark.parametrize("seed", range(4))
def test_level_pass_accounting_matches_the_dp(seed):
    graph = _graph(random_gir_system(500, extra_cells=200, seed=seed))
    level = count_all_paths(graph)
    dp = count_all_paths(graph, method="dp")
    assert level.iterations == dp.iterations
    assert level.iterations == (graph.depth() - 1).bit_length()
    assert level.edge_work == dp.edge_work > 0
    assert level.work_per_iteration == []


class TestInt64Edge:
    """``x[i+1] = x[i] * x[i]``: the count from the top node is exactly
    ``2^depth``.  Depth 62 is the deepest graph the level pass serves
    (2^62 fits int64); depth 63 goes to the DP, whose 2^63 does not."""

    @pytest.mark.parametrize("op", [modular_mul(P + 1), modular_add(P)])
    def test_depth_62_stays_on_the_level_pass(self, op):
        graph = _graph(double_chain_gir_system(62, op=op))
        assert graph.depth() == 62
        got = count_all_paths(graph, period=op.power_period)
        assert got.method == "levels" and got.period is None
        assert int(got.leaf_csr[2].max()) == 2**62
        assert got.powers == count_paths_dp(graph)
        assert got.powers == count_all_paths(graph, method="matrix").powers

    def test_depth_63_exact_on_the_dp(self):
        graph = _graph(double_chain_gir_system(63, op=modular_mul(P + 1)))
        got = count_all_paths(graph)
        assert got.method == "dp" and got.period is None
        assert got.powers == count_paths_dp(graph)
        assert max(got.powers[-1].values()) == 2**63
        assert got.powers == count_all_paths(graph, method="matrix").powers

    def test_depth_63_reduced_on_the_dp(self):
        graph = _graph(double_chain_gir_system(63, op=modular_add(P)))
        got = count_all_paths(graph, period=P)
        assert got.method == "dp" and got.period == P
        exact = count_paths_dp(graph)
        assert got.powers == [
            {leaf: residue(k, P) for leaf, k in row.items()} for row in exact
        ]


def _zigzag(n):
    """A path that alternates operands: node ``i`` reads node ``i - 1``
    through ``f`` when ``i`` is even, through ``h`` when odd, and a leaf
    through the other, so no single-operand chain is longer than two
    while the graph is ``n`` deep."""
    idx = np.arange(n)
    prev = np.where(idx > 0, idx - 1, n)  # node 0 reads leaf cell 0
    leaf = n + 1 + idx % 3
    even = idx % 2 == 0
    return DependenceGraph(
        n=n,
        m=4,
        target_f=np.where(even, prev, leaf),
        target_h=np.where(even, leaf, prev),
    )


@pytest.mark.parametrize("n,level_pass", [(62, True), (63, False), (90, False)])
def test_the_relaxation_alone_finds_the_depth_limit(n, level_pass):
    graph = _zigzag(n)
    assert graph.depth() == n
    got = count_all_paths(graph)
    assert got.method == ("levels" if level_pass else "dp")
    assert got.powers == count_paths_dp(graph)


def test_level_pass_span_and_counters():
    graph = _graph(random_gir_system(300, extra_cells=200, seed=4))
    with obs.observed() as (tracer, registry):
        got = count_all_paths(graph)
    assert got.method == "levels"
    (root,) = tracer.find("cap.count_all_paths")
    assert root.attributes["iterations"] == got.iterations > 0
    assert root.attributes["edge_work"] == got.edge_work > 0
    assert tracer.find("cap.iteration") == []
    assert registry.value("cap.iterations") == got.iterations
    assert registry.value("cap.edge_work") == got.edge_work


def test_the_depth_limit_routes_to_the_dp(monkeypatch):
    graph = _graph(random_gir_system(200, extra_cells=100, seed=1))
    monkeypatch.setattr(cap_module, "_LEVEL_MAX_DEPTH", graph.depth() - 1)
    got = count_all_paths(graph)
    assert got.method == "dp"
    assert got.powers == count_paths_dp(graph)


def test_empty_graph():
    graph = DependenceGraph(
        n=0, m=3, target_f=np.zeros(0, np.int64), target_h=np.zeros(0, np.int64)
    )
    got = count_all_paths(graph)
    assert got.iterations == 0 and got.edge_work == 0
    assert got.leaf_csr[0].tolist() == [0]


def test_default_solves_never_import_scipy():
    """A fresh interpreter's default solves of every family -- ordinary,
    Moebius, shallow and deep GIR, a renamed GIR -- leave SciPy
    unimported."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    code = textwrap.dedent(
        """
        import sys
        from repro.core import FLOAT_ADD
        from repro.core.moebius import AffineRecurrence
        from repro.core.workloads import (
            fibonacci_gir_system, random_gir_system, random_ordinary_system,
            scatter_system,
        )
        from repro.engine import solve

        solve(random_ordinary_system(64, seed=0, op=FLOAT_ADD))
        solve(AffineRecurrence.build(
            [0.5] * 65, range(1, 65), range(64), [0.5] * 64, [0.25] * 64))
        solve(random_gir_system(64, extra_cells=64, seed=0))
        solve(fibonacci_gir_system(300))
        solve(scatter_system(200, 16, seed=2))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("REPRO_NO_SCIPY", None)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"
