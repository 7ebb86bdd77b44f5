"""Tests for the prefix/scan layer built on the IR machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operators import ADD, CONCAT, FLOAT_ADD, MAX, MIN, MUL
from repro.core.prefix import (
    exclusive_scan,
    lift_segmented,
    linear_recurrence,
    prefix_scan,
    segmented_scan,
)


class TestPrefixScan:
    def test_hand_example(self):
        out, _ = prefix_scan([1, 2, 3, 4], ADD)
        assert out == [1, 3, 6, 10]

    def test_matches_numpy_cumsum(self, rng):
        vals = rng.integers(-50, 50, size=200).tolist()
        out, _ = prefix_scan(vals, ADD)
        assert out == np.cumsum(vals).tolist()

    def test_non_commutative_order(self):
        out, _ = prefix_scan([("a",), ("b",), ("c",)], CONCAT)
        assert out == [("a",), ("a", "b"), ("a", "b", "c")]

    def test_running_min_max(self, rng):
        vals = rng.normal(size=100).tolist()
        mins, _ = prefix_scan(vals, MIN)
        maxs, _ = prefix_scan(vals, MAX)
        assert mins == np.minimum.accumulate(vals).tolist()
        assert maxs == np.maximum.accumulate(vals).tolist()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs(self, n):
        vals = list(range(1, n + 1))
        out, _ = prefix_scan(vals, ADD)
        assert out == np.cumsum(vals).tolist() if n else out == []

    def test_engines_agree(self, rng):
        vals = rng.integers(0, 9, size=64).tolist()
        a, _ = prefix_scan(vals, ADD, engine="numpy")
        b, _ = prefix_scan(vals, ADD, engine="python")
        assert a == b

    def test_logarithmic_rounds(self):
        # Lemma-1 pointer jumping (the python engine runs rounds)
        _, stats = prefix_scan(
            list(range(1024)), ADD, engine="python", collect_stats=True
        )
        assert stats.rounds == 10
        # the numpy engine scans the chain as one accumulate level
        _, stats = prefix_scan(list(range(1024)), ADD, collect_stats=True)
        assert stats.rounds == 1

    @given(st.lists(st.integers(-100, 100), max_size=50))
    @settings(max_examples=60)
    def test_property_matches_cumsum(self, vals):
        out, _ = prefix_scan(vals, ADD)
        assert out == np.cumsum(vals).tolist() if vals else out == []


class TestExclusiveScan:
    def test_hand_example(self):
        assert exclusive_scan([1, 2, 3], ADD) == [0, 1, 3]

    def test_requires_identity(self):
        from repro.core.operators import make_operator

        op = make_operator("noid", lambda x, y: x + y)
        with pytest.raises(ValueError, match="identity"):
            exclusive_scan([1, 2], op)

    def test_mul_identity(self):
        assert exclusive_scan([2, 3, 4], MUL) == [1, 2, 6]


class TestSegmentedScan:
    def test_hand_example(self):
        out = segmented_scan(
            [1, 2, 3, 4, 5], [True, False, True, False, False], ADD
        )
        assert out == [1, 3, 3, 7, 12]

    def test_no_flags_equals_plain_scan(self, rng):
        vals = rng.integers(0, 10, size=40).tolist()
        out = segmented_scan(vals, [False] * 40, ADD)
        assert out == np.cumsum(vals).tolist()

    def test_all_flags_is_identity_map(self):
        vals = [5, 6, 7]
        assert segmented_scan(vals, [True] * 3, ADD) == vals

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            segmented_scan([1], [True, False], ADD)

    def test_empty(self):
        assert segmented_scan([], [], ADD) == []

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.booleans()), max_size=40
        )
    )
    @settings(max_examples=60)
    def test_property_matches_sequential_restarts(self, pairs):
        vals = [v for v, _f in pairs]
        flags = [f for _v, f in pairs]
        got = segmented_scan(vals, flags, ADD)
        expect = []
        acc = 0
        for i, (v, f) in enumerate(pairs):
            acc = v if (f or i == 0) else acc + v
            expect.append(acc)
        assert got == expect

    def test_lifted_operator_is_associative(self):
        lifted = lift_segmented(ADD)
        samples = [(1, False), (2, True), (3, False), (4, True)]
        assert lifted.check_associative_on(samples)


class TestLinearRecurrence:
    def test_hand_example(self):
        # x[i] = 2*x[i-1] + 1, x0 = 0 -> 1, 3, 7, 15
        out = linear_recurrence([2, 2, 2, 2], [1, 1, 1, 1], 0)
        assert out == [1, 3, 7, 15]

    def test_matches_sequential(self, rng):
        n = 80
        a = (0.5 * rng.normal(size=n)).tolist()
        b = rng.normal(size=n).tolist()
        x0 = 2.0
        got = linear_recurrence(a, b, x0)
        cur = x0
        for i in range(n):
            cur = a[i] * cur + b[i]
            assert got[i] == pytest.approx(cur, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            linear_recurrence([1.0], [1.0, 2.0], 0.0)

    def test_empty(self):
        assert linear_recurrence([], [], 1.0) == []
