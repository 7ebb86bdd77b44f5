"""Unit and property tests for the OrdinaryIR pointer-jumping solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    ADD,
    CONCAT,
    FLOAT_MUL,
    MIN,
    OrdinaryIRSystem,
    run_ordinary,
)
from repro.core.traces import max_chain_length
from repro.resilience import SolvePolicy

from ..conftest import ordinary_systems
from .._legacy_solvers import solve_ordinary, solve_ordinary_numpy


def chain(n, op=CONCAT):
    initial = [(f"s{j}",) for j in range(n + 1)]
    return OrdinaryIRSystem.build(
        initial, list(range(1, n + 1)), list(range(n)), op
    )


class TestCorrectness:
    def test_single_chain(self):
        sys_ = chain(9)
        expect = run_ordinary(sys_)
        assert solve_ordinary(sys_)[0] == expect
        assert solve_ordinary_numpy(sys_)[0] == expect

    def test_unassigned_cells_preserved(self):
        sys_ = OrdinaryIRSystem.build(
            [(c,) for c in "abcde"], [1], [0], CONCAT
        )
        out, _ = solve_ordinary(sys_)
        assert out[2:] == [("c",), ("d",), ("e",)]

    def test_empty_system(self):
        sys_ = OrdinaryIRSystem.build([("a",)], [], [], CONCAT)
        assert solve_ordinary(sys_)[0] == [("a",)]
        assert solve_ordinary_numpy(sys_)[0] == [("a",)]

    def test_single_iteration(self):
        sys_ = OrdinaryIRSystem.build([("a",), ("b",)], [1], [0], CONCAT)
        assert solve_ordinary(sys_)[0] == [("a",), ("a", "b")]

    def test_self_reference(self):
        # f(i) == g(i): the own cell is squared from its initial value
        sys_ = OrdinaryIRSystem.build([3.0, 5.0], [1], [1], FLOAT_MUL)
        assert solve_ordinary(sys_)[0] == [3.0, 25.0]

    def test_shared_predecessor_tree(self):
        # two chains hang off the same predecessor cell (CREW reads)
        sys_ = OrdinaryIRSystem.build(
            [(c,) for c in "abcd"], [1, 2, 3], [0, 1, 1], CONCAT
        )
        expect = run_ordinary(sys_)
        assert solve_ordinary(sys_)[0] == expect
        assert solve_ordinary_numpy(sys_)[0] == expect

    def test_min_operator_typed_path(self):
        rng = np.random.default_rng(0)
        n = 200
        vals = rng.normal(size=n + 1).tolist()
        sys_ = OrdinaryIRSystem.build(
            vals, list(range(1, n + 1)), list(range(n)), MIN
        )
        expect = run_ordinary(sys_)
        got, _ = solve_ordinary_numpy(sys_)
        assert got == expect

    @given(ordinary_systems())
    @settings(max_examples=80)
    def test_property_python_engine_matches_sequential(self, sys_):
        assert solve_ordinary(sys_)[0] == run_ordinary(sys_)

    @given(ordinary_systems())
    @settings(max_examples=80)
    def test_property_numpy_engine_matches_sequential(self, sys_):
        assert solve_ordinary_numpy(sys_)[0] == run_ordinary(sys_)

    @given(ordinary_systems())
    @settings(max_examples=50)
    def test_property_engines_agree_on_stats(self, sys_):
        _, s1 = solve_ordinary(sys_, collect_stats=True)
        _, s2 = solve_ordinary_numpy(sys_, collect_stats=True)
        assert s1.rounds == s2.rounds
        assert s1.active_per_round == s2.active_per_round
        assert s1.init_ops == s2.init_ops


class TestRoundBounds:
    def test_rounds_logarithmic_in_chain_length(self):
        for n in (1, 2, 3, 7, 8, 9, 100, 1000):
            sys_ = chain(n)
            _, stats = solve_ordinary_numpy(sys_, collect_stats=True)
            L = max_chain_length(sys_)
            assert stats.rounds == max(0, math.ceil(math.log2(L)))

    def test_no_rounds_when_all_terminal(self):
        # every f target is unassigned: all traces complete at init
        sys_ = OrdinaryIRSystem.build(
            [(c,) for c in "abcdef"], [0, 1, 2], [3, 4, 5], CONCAT
        )
        _, stats = solve_ordinary(sys_, collect_stats=True)
        assert stats.rounds == 0
        assert stats.init_ops == 3

    def test_active_counts_shrink(self):
        sys_ = chain(64)
        _, stats = solve_ordinary(sys_, collect_stats=True)
        assert stats.active_per_round == sorted(
            stats.active_per_round, reverse=True
        )

    def test_max_rounds_truncates(self):
        sys_ = chain(16)
        out_partial, stats = solve_ordinary(
            sys_,
            collect_stats=True,
            policy=SolvePolicy(max_rounds=1, on_exhaustion="partial"),
        )
        assert stats.rounds == 1
        assert out_partial != run_ordinary(sys_)

    def test_work_is_n_log_n_at_most(self):
        n = 256
        sys_ = chain(n)
        _, stats = solve_ordinary_numpy(sys_, collect_stats=True)
        assert stats.total_ops <= n * math.ceil(math.log2(n)) + n
        assert stats.depth == stats.rounds + 1


class TestFInitial:
    def test_terminals_read_alternate_array(self):
        sys_ = OrdinaryIRSystem.build(
            [("a",), ("b",), ("c",)], [1, 2], [0, 1], CONCAT
        )
        alt = [("A",), ("B",), ("C",)]
        out, _ = solve_ordinary(sys_, f_initial=alt)
        # terminal (iteration 0) reads alt[0]; chain factors stay initial
        assert out == [("a",), ("A", "b"), ("A", "b", "c")]

    def test_numpy_engine_agrees_on_f_initial(self):
        sys_ = OrdinaryIRSystem.build(
            [("a",), ("b",), ("c",), ("d",)], [1, 3, 2], [0, 2, 1], CONCAT
        )
        alt = [(x,) for x in "WXYZ"]
        a, _ = solve_ordinary(sys_, f_initial=alt)
        b, _ = solve_ordinary_numpy(sys_, f_initial=alt)
        assert a == b
