"""Tests for the diagnostics / explain helpers."""

import re

import numpy as np
import pytest

from repro.core import (
    CONCAT,
    GIRSystem,
    OrdinaryIRSystem,
    modular_mul,
)
from repro.core.diagnostics import explain_gir, explain_ordinary
from .._legacy_solvers import solve_gir, solve_ordinary, solve_ordinary_numpy


def chain(n):
    return OrdinaryIRSystem.build(
        [(f"s{j}",) for j in range(n + 1)],
        list(range(1, n + 1)),
        list(range(n)),
        CONCAT,
    )


class TestExplainOrdinary:
    def test_mentions_structure(self):
        text = explain_ordinary(chain(8))
        assert "n = 8" in text
        assert "longest 8" in text
        assert "3 concatenation round(s)" in text
        assert "non-commutative" in text

    def test_counts_preserved_cells(self):
        text = explain_ordinary(chain(4))  # m = n + 1
        assert "1 cell(s) preserve their initial values" in text

    def test_empty(self):
        sys_ = OrdinaryIRSystem.build([1], [], [], CONCAT)
        assert "empty loop" in explain_ordinary(sys_)


class TestExplainGIR:
    def fib(self, n):
        return GIRSystem.build(
            [2, 3] + [1] * n,
            [i + 2 for i in range(n)],
            [i + 1 for i in range(n)],
            [i for i in range(n)],
            modular_mul(97),
        )

    def test_mentions_pipeline(self):
        text = explain_gir(self.fib(12))
        assert "depth 12" in text
        assert "CAP" in text
        assert "atomic powers essential" in text
        assert "commutative: GIR-solvable" in text

    def test_flags_non_commutative(self):
        sys_ = GIRSystem.build([("a",), ("b",), ("c",)], [2], [0], [1], CONCAT)
        text = explain_gir(sys_)
        assert "NON-commutative" in text
        assert "P-vs-NC" in text

    def test_flags_renaming(self):
        op = modular_mul(97)
        sys_ = GIRSystem.build([1, 2], [0, 0], [1, 1], [1, 0], op)
        text = explain_gir(sys_)
        assert "renaming adds 2 version cells" in text

    def test_notes_ordinary_shape(self):
        op = modular_mul(97)
        sys_ = GIRSystem.build([1, 2, 3], [1, 2], [0, 1], [1, 2], op)
        assert "OrdinaryIR" in explain_gir(sys_)

    def test_empty(self):
        op = modular_mul(97)
        sys_ = GIRSystem.build([1], [], [], [], op)
        assert "empty loop" in explain_gir(sys_)


def predicted_rounds(text):
    """The round count explain_ordinary promises."""
    match = re.search(r"(\d+) concatenation round\(s\)", text)
    assert match, text
    return int(match.group(1))


def predicted_cap_iterations(text):
    """The CAP iteration bound explain_gir promises."""
    match = re.search(r"CAP in <= (\d+) doubling iteration\(s\)", text)
    assert match, text
    return int(match.group(1))


class TestPredictionsMatchObservation:
    """The explain_* round-count *predictions* must agree with what the
    solvers actually record -- the paper's ceil(log2 L) claims, checked
    end to end on the same systems."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 64, 100])
    def test_ordinary_chain_rounds_exact(self, n):
        system = chain(n)
        predicted = predicted_rounds(explain_ordinary(system))
        _out, stats = solve_ordinary(system, collect_stats=True)
        assert stats.rounds == predicted

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ordinary_random_forest_rounds_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        # distinct g, each f(i) pointing anywhere: a forest of chains
        g = rng.permutation(n) + 1
        f = rng.integers(0, n + 1, size=n)
        system = OrdinaryIRSystem.build(
            [(f"s{j}",) for j in range(n + 1)], g, f, CONCAT
        )
        predicted = predicted_rounds(explain_ordinary(system))
        _out, stats = solve_ordinary_numpy(system, collect_stats=True)
        assert stats.rounds == predicted

    def test_both_engines_agree_with_prediction(self):
        system = chain(33)
        predicted = predicted_rounds(explain_ordinary(system))
        _o1, py_stats = solve_ordinary(system, collect_stats=True)
        _o2, np_stats = solve_ordinary_numpy(system, collect_stats=True)
        assert py_stats.rounds == np_stats.rounds == predicted

    @pytest.mark.parametrize("n", [2, 5, 12, 20])
    def test_gir_cap_iteration_bound_holds(self, n):
        system = GIRSystem.build(
            [2, 3] + [1] * n,
            [i + 2 for i in range(n)],
            [i + 1 for i in range(n)],
            list(range(n)),
            modular_mul(97),
        )
        bound = predicted_cap_iterations(explain_gir(system))
        _out, stats = solve_gir(
            system,
            collect_stats=True,
            allow_ordinary_dispatch=False,
            table="batched",  # CAP and its table, not the level sweeps
        )
        assert 0 < stats.cap_iterations <= bound
