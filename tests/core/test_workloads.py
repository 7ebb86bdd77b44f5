"""Tests for the workload generators' documented invariants."""

import math

import numpy as np
import pytest

from repro.core import run_gir, run_ordinary
from repro.core.cap import count_all_paths
from repro.core.depgraph import build_dependence_graph
from repro.core.traces import chain_lengths, max_chain_length, tree_sizes
from repro.core.workloads import (
    chain_system,
    double_chain_gir_system,
    fibonacci_gir_system,
    forest_system,
    random_gir_system,
    random_ordinary_system,
    scatter_system,
)
from .._legacy_solvers import solve_gir, solve_ordinary, solve_ordinary_numpy


class TestChain:
    def test_is_one_maximal_chain(self):
        sys_ = chain_system(32)
        assert max_chain_length(sys_) == 32
        # Lemma-1 rounds: ceil(log2 32) on the python engine's rounds
        _, stats = solve_ordinary(sys_, collect_stats=True)
        assert stats.rounds == 5

    def test_solvable(self):
        sys_ = chain_system(17)
        # float products associate differently in the balanced solve:
        # compare with tolerance
        assert np.allclose(solve_ordinary_numpy(sys_)[0], run_ordinary(sys_))


class TestForest:
    def test_chain_length_distribution(self):
        sys_ = forest_system([3, 1, 5])
        lengths = chain_lengths(sys_)
        assert sorted(lengths.tolist()) == sorted([1, 2, 3, 1, 1, 2, 3, 4, 5])
        assert max_chain_length(sys_) == 5

    def test_zero_length_chains_allowed(self):
        sys_ = forest_system([0, 2, 0])
        assert sys_.n == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            forest_system([2, -1])

    def test_solvable(self):
        sys_ = forest_system([4, 7, 1, 2])
        assert np.allclose(solve_ordinary_numpy(sys_)[0], run_ordinary(sys_))


class TestRandomOrdinary:
    def test_deterministic_by_seed(self):
        a = random_ordinary_system(20, seed=5)
        b = random_ordinary_system(20, seed=5)
        assert a.g.tolist() == b.g.tolist() and a.f.tolist() == b.f.tolist()
        c = random_ordinary_system(20, seed=6)
        assert a.g.tolist() != c.g.tolist() or a.f.tolist() != c.f.tolist()

    def test_valid_and_solvable(self):
        for seed in range(5):
            sys_ = random_ordinary_system(25, extra_cells=5, seed=seed)
            assert sys_.g_is_distinct()
            assert np.allclose(
                solve_ordinary_numpy(sys_)[0], run_ordinary(sys_)
            )


class TestScatter:
    def test_non_distinct_g(self):
        sys_ = scatter_system(50, 5, seed=1)
        assert not sys_.g_is_distinct()
        assert solve_gir(sys_)[0] == pytest.approx(run_gir(sys_))


class TestGIRShapes:
    def test_fibonacci_powers(self):
        sys_ = fibonacci_gir_system(12)
        sizes = tree_sizes(sys_)
        fib = [1, 1]
        for _ in range(14):
            fib.append(fib[-1] + fib[-2])
        assert sizes == [fib[i + 2] for i in range(12)]
        assert solve_gir(sys_)[0] == run_gir(sys_)

    def test_double_chain_powers_of_two(self):
        sys_ = double_chain_gir_system(10)
        graph = build_dependence_graph(sys_)
        cap = count_all_paths(graph)
        for i in range(10):
            assert cap.powers[i] == {graph.n: 2 ** (i + 1)}
        assert solve_gir(sys_)[0] == run_gir(sys_)

    def test_random_gir_both_modes(self):
        for distinct in (True, False):
            for seed in range(4):
                sys_ = random_gir_system(18, seed=seed, distinct_g=distinct)
                assert sys_.g_is_distinct() == distinct or sys_.n <= 1
                assert solve_gir(sys_)[0] == run_gir(sys_)
