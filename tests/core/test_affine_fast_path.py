"""Tests for the vectorized affine Moebius engine and auto-dispatch."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.equations import IRValidationError
from repro.engine import EngineOptions, solve
from repro.engine.planner import PlanCache
from repro.core.moebius import (
    AffineRecurrence,
    RationalRecurrence,
    run_moebius_sequential,
)
from .._legacy_solvers import solve_affine_numpy, solve_moebius


def random_affine(rng, n, m, self_term=False):
    perm = rng.permutation(m)[:n]
    f = rng.integers(0, m, size=n)
    return AffineRecurrence.build(
        rng.normal(size=m).tolist(),
        perm,
        f,
        (0.8 * rng.normal(size=n)).tolist(),
        rng.normal(size=n).tolist(),
        self_term=self_term,
    )


class TestFastPath:
    @pytest.mark.parametrize("self_term", [False, True])
    def test_bit_identical_to_object_engine(self, rng, self_term):
        # the affine rounds (python backend: random forests plan
        # dependence levels, which numpy sweeps instead) compose the
        # object engine's products in its order; the numpy level sweep
        # is the sequential loop's formula
        rounds = EngineOptions(
            backend="python", backend_options={"path": "affine", "guard": None}
        )
        for _ in range(15):
            n = int(rng.integers(1, 60))
            rec = random_affine(rng, n, n + int(rng.integers(0, 10)), self_term)
            obj, s_obj = solve_moebius(rec, engine="numpy", collect_stats=True)
            fast = solve(rec, cache=PlanCache(), collect_stats=True, options=rounds)
            assert obj == fast.values  # bit-identical floats
            assert s_obj.active_per_round == fast.stats.active_per_round
            assert solve_affine_numpy(rec)[0] == run_moebius_sequential(rec)

    def test_matches_sequential(self, rng):
        rec = random_affine(rng, 120, 140)
        assert np.allclose(
            solve_affine_numpy(rec)[0], run_moebius_sequential(rec)
        )

    def test_rejects_rational(self):
        rec = RationalRecurrence.build(
            [1.0, 1.0], [1], [0], [1.0], [0.0], [1.0], [1.0]
        )
        with pytest.raises(IRValidationError, match="requires c = 0"):
            solve_affine_numpy(rec)

    def test_rejects_zero_d(self):
        rec = RationalRecurrence.build(
            [1.0, 1.0], [1], [0], [1.0], [0.0], [0.0], [0.0]
        )
        with pytest.raises(ZeroDivisionError):
            solve_affine_numpy(rec)

    def test_d_normalization(self, rng):
        # (a X + b) / d with d != 1: normalized into the pair form
        n = 30
        rec = RationalRecurrence.build(
            rng.normal(size=n + 1).tolist(),
            list(range(1, n + 1)),
            list(range(0, n)),
            rng.normal(size=n).tolist(),
            rng.normal(size=n).tolist(),
            [0.0] * n,
            rng.uniform(0.5, 2.0, n).tolist(),
        )
        got = solve_affine_numpy(rec)[0]
        assert np.allclose(got, run_moebius_sequential(rec))


class TestAutoDispatch:
    def test_auto_picks_fast_path_for_floats(self, rng):
        rec = random_affine(rng, 40, 50)
        a, _ = solve_moebius(rec, engine="auto")
        b, _ = solve_affine_numpy(rec)
        assert a == b

    def test_auto_keeps_object_engine_for_fractions(self):
        rec = AffineRecurrence.build(
            [Fraction(1), Fraction(2), Fraction(3)],
            [1, 2],
            [0, 1],
            [Fraction(1, 3), Fraction(2)],
            [Fraction(1), Fraction(0)],
        )
        out, _ = solve_moebius(rec)  # default engine is auto
        assert all(isinstance(v, Fraction) for v in out)  # exactness kept
        assert out == run_moebius_sequential(rec)

    def test_auto_keeps_object_engine_for_rational(self):
        rec = RationalRecurrence.build(
            [1.0] * 5,
            [1, 2, 3, 4],
            [0, 1, 2, 3],
            [1.0] * 4,
            [1.0] * 4,
            [1.0] * 4,
            [0.0] * 4,
        )
        out, _ = solve_moebius(rec)
        assert np.allclose(out, run_moebius_sequential(rec))

    def test_explicit_affine_engine(self, rng):
        rec = random_affine(rng, 20, 25)
        out, _ = solve_moebius(rec, engine="affine")
        assert np.allclose(out, run_moebius_sequential(rec))


class TestRationalFastPath:
    def _rational(self, rng, n, self_term=False):
        m = n + int(rng.integers(0, 8))
        perm = rng.permutation(m)[:n]
        f = rng.integers(0, m, size=n)
        return RationalRecurrence.build(
            rng.uniform(0.5, 2.0, m).tolist(),
            perm,
            f,
            rng.uniform(0.5, 2.0, n).tolist(),
            rng.uniform(0.0, 1.0, n).tolist(),
            rng.uniform(0.0, 0.5, n).tolist(),
            rng.uniform(0.5, 2.0, n).tolist(),
            self_term=self_term,
        )

    @pytest.mark.parametrize("self_term", [False, True])
    def test_bit_identical_to_object_engine(self, rng, self_term):
        from .._legacy_solvers import solve_rational_numpy

        for _ in range(10):
            rec = self._rational(rng, int(rng.integers(1, 50)), self_term)
            obj, s1 = solve_moebius(rec, engine="numpy", collect_stats=True)
            fast, s2 = solve_rational_numpy(rec, collect_stats=True)
            assert obj == fast
            assert s1.active_per_round == s2.active_per_round

    def test_auto_uses_rational_path_for_float_rational(self, rng):
        from .._legacy_solvers import solve_rational_numpy

        rec = self._rational(rng, 30)
        result = solve(rec, cache=PlanCache())
        # the float level kernel: the loop's formula, bit for bit
        assert result.strategy == "levels"
        assert result.values == run_moebius_sequential(rec)
        fast, _ = solve_rational_numpy(rec)
        assert np.allclose(result.values, fast)

    def test_degenerate_coefficient_maps(self):
        from .._legacy_solvers import solve_rational_numpy

        # det(M) = 0 coefficient matrices (constant maps) mid-chain
        rec = RationalRecurrence.build(
            [2.0, 3.0, 4.0],
            [1, 2],
            [0, 1],
            [2.0, 1.0],
            [1.0, 0.0],
            [4.0, 0.0],
            [2.0, 1.0],
        )
        a = solve_moebius(rec, engine="numpy")[0]
        b = solve_rational_numpy(rec)[0]
        assert a == b == run_moebius_sequential(rec)
