"""Numerical robustness tests.

The solvers re-associate floating-point operations (balanced products
instead of left folds), so results can differ from the sequential loop
in the last bits.  These tests quantify that: both the sequential loop
and the parallel solvers are compared against *exact* Fraction ground
truth, and their errors must be of the same magnitude -- the parallel
algorithms must not be systematically less accurate.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import (
    FLOAT_MUL,
    AffineRecurrence,
    OrdinaryIRSystem,
    run_moebius_sequential,
    run_ordinary,
)
from repro.core.operators import CONCAT, make_operator
from .._legacy_solvers import solve_moebius, solve_ordinary, solve_ordinary_numpy


class TestMoebiusAccuracy:
    def _chain(self, rng, n):
        """A float affine chain plus its exact Fraction twin."""
        a = rng.uniform(0.9, 1.1, n)
        b = rng.uniform(-1.0, 1.0, n)
        x0 = [rng.uniform(0.5, 1.5)]
        float_rec = AffineRecurrence.build(
            x0 + [0.0] * n,
            g=list(range(1, n + 1)),
            f=list(range(0, n)),
            a=a.tolist(),
            b=b.tolist(),
        )
        exact_rec = AffineRecurrence.build(
            [Fraction(v) for v in x0] + [Fraction(0)] * n,
            g=list(range(1, n + 1)),
            f=list(range(0, n)),
            a=[Fraction(v) for v in a],
            b=[Fraction(v) for v in b],
        )
        return float_rec, exact_rec

    def test_parallel_error_comparable_to_sequential(self, rng):
        n = 200
        float_rec, exact_rec = self._chain(rng, n)
        exact = [float(v) for v in run_moebius_sequential(exact_rec)]
        seq = run_moebius_sequential(float_rec)
        par, _ = solve_moebius(float_rec)

        seq_err = max(abs(s - e) for s, e in zip(seq, exact))
        par_err = max(abs(p - e) for p, e in zip(par, exact))
        scale = max(abs(v) for v in exact)
        # both tiny relative to the value scale...
        assert seq_err <= 1e-10 * max(scale, 1)
        assert par_err <= 1e-10 * max(scale, 1)
        # ...and of comparable magnitude
        assert par_err <= 100 * max(seq_err, 1e-16)

    def test_exact_on_fractions_by_construction(self, rng):
        _, exact_rec = self._chain(rng, 60)
        assert solve_moebius(exact_rec)[0] == run_moebius_sequential(exact_rec)


class TestFloatSaturation:
    def test_parallel_matches_sequential_at_inf(self):
        # growth to overflow: both paths must agree on where inf begins
        n = 40
        initial = [1e300] + [10.0] * n
        system = OrdinaryIRSystem.build(
            initial, list(range(1, n + 1)), list(range(n)), FLOAT_MUL
        )
        seq = run_ordinary(system)
        par, _ = solve_ordinary_numpy(system)
        assert seq[-1] == float("inf")
        for s, p in zip(seq, par):
            if s == float("inf"):
                assert p == float("inf")
            else:
                assert p == pytest.approx(s, rel=1e-9)


class TestEngineEquivalence:
    def test_typed_and_object_paths_identical(self, rng):
        """The vectorized engine's object path and the pure-Python
        engine must produce bit-identical floats -- they perform the
        same rounds in the same order -- and the typed (float64 ufunc)
        path, which sweeps this random forest by dependence level, the
        sequential loop's."""
        n = 300
        m = n + 10
        g = rng.permutation(m)[:n]
        f = rng.integers(0, m, size=n)
        initial = rng.uniform(0.5, 1.5, size=m).tolist()
        typed_sys = OrdinaryIRSystem.build(initial, g, f, FLOAT_MUL)
        # an operator with the same fn but no vector_fn: object path
        object_mul = make_operator(
            "obj_mul", lambda x, y: x * y, commutative=True, dtype=None
        )
        object_sys = OrdinaryIRSystem.build(initial, g, f, object_mul)
        a, _ = solve_ordinary_numpy(typed_sys)
        b, _ = solve_ordinary_numpy(object_sys)
        c, _ = solve_ordinary(typed_sys)
        assert b == c  # bit-identical
        assert a == run_ordinary(typed_sys)

    def test_tuple_monoid_through_object_path(self, rng):
        n, m = 100, 110
        g = rng.permutation(m)[:n]
        f = rng.integers(0, m, size=n)
        initial = [(f"s{j}",) for j in range(m)]
        system = OrdinaryIRSystem.build(initial, g, f, CONCAT)
        assert solve_ordinary_numpy(system)[0] == run_ordinary(system)
