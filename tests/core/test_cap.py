"""Unit and property tests for CAP (Counting All Paths)."""

import math

import pytest
from hypothesis import given, settings

from repro.core import GIRSystem
from repro.core import cap as cap_module
from repro.core.cap import CAPResult, cap_iterations, count_all_paths, count_paths_dp
from repro.core.depgraph import build_dependence_graph
from repro.core.operators import modular_add
from repro.core.traces import leaf_counts

from ..conftest import gir_systems


def fib_graph(n):
    op = modular_add(97)
    sys_ = GIRSystem.build(
        [1] * (n + 2),
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        [i for i in range(n)],
        op,
    )
    return sys_, build_dependence_graph(sys_)


class TestCAPCorrectness:
    def test_fibonacci_powers(self):
        n = 20
        _, g = fib_graph(n)
        cap = count_all_paths(g)
        fib = [1, 1]
        for _ in range(n + 2):
            fib.append(fib[-1] + fib[-2])
        assert cap.powers[n - 1] == {g.n + 0: fib[n - 1], g.n + 1: fib[n]}

    def test_matches_dp_ground_truth(self):
        _, g = fib_graph(12)
        assert count_all_paths(g).powers == count_paths_dp(g)

    def test_matches_trace_leaf_counts(self):
        sys_, g = fib_graph(10)
        cap = count_all_paths(g)
        lc = leaf_counts(sys_)
        for i in range(g.n):
            assert cap.powers_by_cell(g, i) == lc[i]

    def test_double_chain_powers_of_two(self):
        # the paper's CAP(G) example: a double chain v1 => v2 => ... vn
        # gives 2^(i-1) paths from the bottom to node i
        op = modular_add(97)
        n = 8
        sys_ = GIRSystem.build(
            [1] * (n + 1),
            [i + 1 for i in range(n)],
            [i for i in range(n)],
            [i for i in range(n)],  # h = f: double edges
            op,
        )
        g = build_dependence_graph(sys_)
        cap = count_all_paths(g)
        for i in range(n):
            assert cap.powers[i] == {g.n + 0: 2 ** (i + 1)}

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=60)
    def test_property_cap_equals_dp(self, sys_):
        g = build_dependence_graph(sys_)
        assert count_all_paths(g).powers == count_paths_dp(g)

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=40)
    def test_property_cap_equals_leaf_counts(self, sys_):
        g = build_dependence_graph(sys_)
        cap = count_all_paths(g)
        lc = leaf_counts(sys_)
        for i in range(g.n):
            assert cap.powers_by_cell(g, i) == lc[i]


def _dict_rows(monkeypatch):
    """Make doubling run on the dict rows, as without SciPy."""
    monkeypatch.setattr(cap_module, "_scipy_sparse", lambda: None)


def _csr(monkeypatch):
    """Make doubling run on SciPy CSR, whatever ``REPRO_NO_SCIPY`` says."""
    sparse = pytest.importorskip("scipy.sparse")
    monkeypatch.setattr(cap_module, "_scipy_sparse", lambda: sparse)


class TestMethodParity:
    """Doubling on SciPy CSR, doubling on dict rows and the DP are one
    algorithm in three clothes."""

    @pytest.mark.parametrize("method", ("csr", "rows", "dp"))
    def test_explicit_methods_agree(self, method, monkeypatch):
        _, g = fib_graph(24)
        if method != "dp":
            (_dict_rows if method == "rows" else _csr)(monkeypatch)
        method = "dp" if method == "dp" else "matrix"
        assert count_all_paths(g, method=method).powers == count_paths_dp(g)

    def test_csr_and_dict_rows_share_iteration_accounting(self, monkeypatch):
        _, g = fib_graph(20)
        _csr(monkeypatch)
        csr = count_all_paths(g, method="matrix")
        csr_partial = [
            count_all_paths(g, method="matrix", max_iterations=k).powers
            for k in range(1, csr.iterations)
        ]
        _dict_rows(monkeypatch)
        rows = count_all_paths(g, method="matrix")
        assert csr.leaf_csr is not None and rows.leaf_csr is None
        assert csr.iterations == rows.iterations
        assert csr.powers == rows.powers
        # partial states agree round by round, too
        for k in range(1, csr.iterations):
            assert (
                csr_partial[k - 1]
                == count_all_paths(g, method="matrix", max_iterations=k).powers
            )

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=30)
    def test_property_methods_agree(self, sys_):
        g = build_dependence_graph(sys_)
        want = count_paths_dp(g)
        for method in ("matrix", "dp"):
            assert count_all_paths(g, method=method).powers == want
        with pytest.MonkeyPatch.context() as mp:
            _dict_rows(mp)
            assert count_all_paths(g, method="matrix").powers == want

    def test_object_promotion_stays_exact(self):
        # fib(121) >> 2**63: the counting matrix must promote to exact
        # Python ints before any product can overflow int64.
        n = 120
        _, g = fib_graph(n)
        cap = count_all_paths(g, method="matrix")
        assert cap.powers == count_paths_dp(g)
        top = max(cap.powers[n - 1].values())
        assert top.bit_length() > 63  # genuinely beyond int64

    def test_unknown_method_rejected(self):
        _, g = fib_graph(4)
        with pytest.raises(ValueError):
            count_all_paths(g, method="quantum")


class TestScipyGating:
    """CAP parity must survive SciPy's absence (both the env override
    and a missing import)."""

    def test_env_override_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SCIPY", "1")
        assert cap_module._scipy_sparse() is None
        _, g = fib_graph(18)
        assert count_all_paths(g, method="matrix").powers == count_paths_dp(g)

    def test_monkeypatched_absence_forces_fallback(self, monkeypatch):
        monkeypatch.setattr(cap_module, "_scipy_sparse", lambda: None)
        _, g = fib_graph(18)
        for method in ("auto", "matrix"):
            assert count_all_paths(g, method=method).powers == count_paths_dp(g)

    def test_pure_python_rows_carry_the_doubling(self, monkeypatch):
        # no scipy: the sparse pure-Python row representation carries
        # the doubling, whatever the graph's size.
        _dict_rows(monkeypatch)
        _, g = fib_graph(30)
        cap = count_all_paths(g, method="matrix")
        assert cap.method == "doubling" and cap.leaf_csr is None
        assert cap.powers == count_paths_dp(g)


class TestConvergence:
    def test_iteration_bound_logarithmic(self):
        for n in (1, 2, 3, 4, 15, 16, 17, 63):
            _, g = fib_graph(n)
            cap = count_all_paths(g)
            assert cap.iterations <= max(1, math.ceil(math.log2(g.depth())))

    def test_zero_iterations_when_flat(self):
        # every operand is a leaf: converged before any iteration
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2, 3, 4], [3], [0], [1], op)
        g = build_dependence_graph(sys_)
        assert count_all_paths(g).iterations == 0

    def test_max_iterations_cap(self):
        _, g = fib_graph(32)
        partial = count_all_paths(g, max_iterations=1)
        assert partial.iterations == 1
        full = count_all_paths(g)
        assert full.powers != partial.powers

    def test_storyboard_converges_and_is_prefix_consistent(self):
        _, g = fib_graph(9)
        frames = list(cap_iterations(g))
        # first frame is the raw dependence edges
        assert frames[0][0] == g.out_edges(0)
        # last frame equals the converged result
        assert frames[-1] == count_all_paths(g).powers
        # every frame only ever points "down" (labels positive)
        for frame in frames:
            for e in frame:
                assert all(x > 0 for x in e.values())

    def test_edge_work_positive_only_when_iterating(self):
        _, g = fib_graph(10)
        cap = count_all_paths(g)
        assert cap.edge_work > 0
        op = modular_add(97)
        flat = GIRSystem.build([1, 2, 3], [2], [0], [1], op)
        cap0 = count_all_paths(build_dependence_graph(flat))
        assert cap0.edge_work == 0
