"""Wall-clock comparison of the library's execution engines.

Not a paper artifact -- a library-quality check: the vectorized NumPy
OrdinaryIR engine should beat the pure-Python parallel reference and
be within a sane factor of the sequential loop at large n on one host
core (the parallel algorithm does log n times more work; the paper's
speedups are in *simulated processor time*, which
bench_fig3_ordinary_ir.py covers).
"""

import numpy as np
import pytest

from repro.core import FLOAT_MUL, OrdinaryIRSystem, run_ordinary
from repro.engine import EngineOptions, solve

N = 100_000


def build(n=N):
    return OrdinaryIRSystem.build(
        np.full(n + 1, 1.0000001),
        np.arange(1, n + 1),
        np.arange(n),
        FLOAT_MUL,
    )


@pytest.fixture(scope="module")
def system():
    return build()


def test_wallclock_numpy_engine(benchmark, system):
    result = benchmark(lambda: solve(
        system,
        options=EngineOptions(backend="numpy"),
    ).values)
    assert len(result) == N + 1


def test_wallclock_python_engine(benchmark, system):
    small = build(10_000)  # the pure-Python engine is the slow reference
    result = benchmark(lambda: solve(
        small,
        options=EngineOptions(backend="python"),
    ).values)
    assert len(result) == 10_001


def test_wallclock_sequential_loop(benchmark, system):
    result = benchmark(run_ordinary, system)
    assert len(result) == N + 1


def _affine_recurrence(n):
    import numpy as np

    from repro.core.moebius import AffineRecurrence

    rng = np.random.default_rng(0)
    return AffineRecurrence.build(
        rng.normal(size=n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        (0.9 * rng.normal(size=n)).tolist(),
        rng.normal(size=n).tolist(),
    )


def test_wallclock_moebius_object_engine(benchmark):
    rec = _affine_recurrence(20_000)
    result = benchmark(
        lambda: solve(rec, options={"path": "object"}).values
    )
    assert len(result) == 20_001


def test_wallclock_moebius_affine_fast_path(benchmark):
    rec = _affine_recurrence(20_000)
    result = benchmark(
        lambda: solve(rec, options={"path": "affine"}).values
    )
    assert len(result) == 20_001


def main():
    import time

    system = build()
    for name, fn in (
        ("sequential loop", lambda: run_ordinary(system)),
        ("numpy parallel engine", lambda: solve(
            system,
            options=EngineOptions(backend="numpy"),
        )),
    ):
        t0 = time.perf_counter()
        fn()
        print(f"{name:<24} {time.perf_counter() - t0:.4f}s  (n = {N:,})")
    small = build(10_000)
    t0 = time.perf_counter()
    solve(small, options=EngineOptions(backend="python"))
    print(f"{'python parallel engine':<24} {time.perf_counter() - t0:.4f}s  (n = 10,000)")


if __name__ == "__main__":
    main()
