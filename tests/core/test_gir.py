"""Unit and property tests for the GIR solver."""

import pytest
from hypothesis import given, settings

from repro.core import (
    CONCAT,
    GIRSystem,
    OperatorError,
    run_gir,
)
from repro.core.gir import evaluate_trace_powers
from repro.core.operators import make_operator, modular_add, modular_mul

from ..conftest import gir_systems
from .._legacy_solvers import solve_gir


def fib_system(n, mod=10**9 + 7):
    op = modular_mul(mod)
    return GIRSystem.build(
        [3, 5] + [1] * n,
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        [i for i in range(n)],
        op,
    )


class TestCorrectness:
    def test_fibonacci_recurrence(self):
        sys_ = fib_system(25)
        assert solve_gir(sys_)[0] == run_gir(sys_)

    def test_empty_and_tiny(self):
        op = modular_add(97)
        assert solve_gir(GIRSystem.build([5], [], [], [], op))[0] == [5]
        sys_ = GIRSystem.build([5, 6], [0], [1], [1], op)
        assert solve_gir(sys_)[0] == run_gir(sys_)

    def test_never_assigned_cells_untouched(self):
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2, 3, 4], [0], [1], [2], op)
        out, _ = solve_gir(sys_)
        assert out[1:] == [2, 3, 4]

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=80)
    def test_property_distinct_g(self, sys_):
        assert solve_gir(sys_)[0] == run_gir(sys_)

    @given(gir_systems(distinct_g=False))
    @settings(max_examples=80)
    def test_property_non_distinct_g_via_renaming(self, sys_):
        out, stats = solve_gir(sys_, collect_stats=True)
        assert out == run_gir(sys_)

    def test_rename_flag_reported(self):
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2], [0, 0], [1, 1], [1, 0], op)
        _, stats = solve_gir(sys_, collect_stats=True)
        assert stats.renamed

    def test_rename_can_be_disallowed(self):
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2], [0, 0], [1, 1], [1, 0], op)
        with pytest.raises(ValueError, match="non-distinct g"):
            solve_gir(sys_, allow_rename=False)


class TestOrdinaryDispatch:
    def test_ordinary_shaped_non_commutative_solvable(self):
        # h == g with distinct g: the section-2 special case applies,
        # so commutativity is not required
        sys_ = GIRSystem.build(
            [("a",), ("b",), ("c",)], [1, 2], [0, 1], [1, 2], CONCAT
        )
        out, stats = solve_gir(sys_, collect_stats=True)
        assert out == run_gir(sys_)
        assert stats.ordinary_dispatch
        assert stats.cap_iterations == 0

    def test_dispatch_can_be_disabled(self):
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2, 3], [1, 2], [0, 1], [1, 2], op)
        a, sa = solve_gir(sys_, collect_stats=True)
        b, sb = solve_gir(
            sys_, collect_stats=True, allow_ordinary_dispatch=False
        )
        assert a == b == run_gir(sys_)
        assert sa.ordinary_dispatch and not sb.ordinary_dispatch
        assert sb.cap_iterations >= 0 and sb.power_ops >= 0

    def test_non_commutative_without_dispatch_rejected(self):
        sys_ = GIRSystem.build(
            [("a",), ("b",), ("c",)], [1, 2], [0, 1], [1, 2], CONCAT
        )
        with pytest.raises(OperatorError, match="not commutative"):
            solve_gir(sys_, allow_ordinary_dispatch=False)

    def test_non_distinct_g_not_dispatched(self):
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2], [0, 0], [1, 1], [0, 0], op)
        _, stats = solve_gir(sys_, collect_stats=True)
        assert not stats.ordinary_dispatch and stats.renamed


class TestAlgebraicRequirements:
    def test_non_commutative_rejected(self):
        sys_ = GIRSystem.build(
            [("a",), ("b",), ("c",)], [2], [0], [1], CONCAT
        )
        with pytest.raises(OperatorError, match="not commutative"):
            solve_gir(sys_)

    def test_atomic_power_is_used(self):
        """The solver must call op.power once per (cell, count>1)
        factor rather than expanding the trace."""
        calls = []

        def counting_power(x, k):
            calls.append(k)
            return (x * (k % 97)) % 97

        op = make_operator(
            "counted_add",
            lambda x, y: (x + y) % 97,
            commutative=True,
            power=counting_power,
        )
        n = 20
        sys_ = GIRSystem.build(
            [3, 5] + [0] * n,
            [i + 2 for i in range(n)],
            [i + 1 for i in range(n)],
            [i for i in range(n)],
            op,
        )
        # the power table's rows (a level plan sweeps op.fn instead)
        out, stats = solve_gir(sys_, collect_stats=True, table="rows")
        assert out == run_gir(sys_)
        # Fibonacci counts appear as exponents: exponential in n, far
        # beyond the number of power calls (which is O(n)).
        fib = [1, 1]
        for _ in range(n + 1):
            fib.append(fib[-1] + fib[-2])
        assert max(calls) == fib[n]
        assert len(calls) == stats.power_ops


class TestTraceEvaluation:
    def test_single_factor(self):
        op = modular_add(97)
        value, p, c = evaluate_trace_powers({3: 1}, [0, 0, 0, 7], op)
        assert (value, p, c) == (7, 0, 0)

    def test_power_and_combine_counts(self):
        op = modular_add(97)
        value, p, c = evaluate_trace_powers({0: 2, 1: 1, 2: 3}, [1, 2, 3], op)
        assert value == (2 * 1 + 2 + 3 * 3) % 97
        assert p == 2  # two factors with exponent > 1
        assert c == 2  # three factors -> two combines

    def test_empty_trace_rejected(self):
        op = modular_add(97)
        with pytest.raises(ValueError, match="empty trace"):
            evaluate_trace_powers({}, [1], op)

    def test_deterministic_order(self):
        op = modular_add(97)
        a = evaluate_trace_powers({5: 1, 1: 2, 3: 1}, list(range(10)), op)
        b = evaluate_trace_powers({3: 1, 5: 1, 1: 2}, list(range(10)), op)
        assert a == b


class TestStats:
    def test_stats_fields(self):
        sys_ = fib_system(16)
        # the power-table path (a default solve sweeps levels instead)
        _, stats = solve_gir(sys_, collect_stats=True, table="batched")
        assert stats.n == 16
        assert stats.cap_iterations >= 1
        assert stats.cap_edge_work > 0
        assert stats.power_ops > 0
        assert stats.combine_ops > 0
        assert stats.total_ops == stats.power_ops + stats.combine_ops
        assert stats.reduction_depth >= 1
        assert not stats.renamed
