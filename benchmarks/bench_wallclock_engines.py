"""Wall-clock comparison of the library's execution engines against the
paper's sequential loop.

``main()`` is a gated bench (``check_regression.GATED``): at n = 1M an
int ``ADD`` chain is solved by a default ``Session`` -- list in, list
out, exactly what a caller pays -- and timed in one process against
the sequential loop (``run_ordinary``) and against the C floor (one
``np.add.accumulate`` over the same values, already an array).  Both
ratios land in
``BENCH_results.json`` (the record's ``ratios``); the gate is
``speedup_vs_loop >= MIN_SPEEDUP``.  The planner picks the chain
layout for this problem, so the solve is one ``accumulate`` plus the
list conversions, which alone cost about a third of the loop: list I/O
rules out an order-of-magnitude win.

The pytest-benchmark tests below time the smaller engine matrix (the
parallel algorithm's rounds do log n times more work; the paper's
speedups are in *simulated processor time*, which
bench_fig3_ordinary_ir.py covers).
"""

import numpy as np

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


def test_wallclock_numpy_engine(benchmark):
    system = build()
    result = benchmark(lambda: solve(
        system,
        options=EngineOptions(backend="numpy"),
    ).values)
    assert len(result) == N + 1


def test_wallclock_python_engine(benchmark):
    small = build(10_000)  # the pure-Python engine is the slow reference
    result = benchmark(lambda: solve(
        small,
        options=EngineOptions(backend="python"),
    ).values)
    assert len(result) == 10_001


def test_wallclock_sequential_loop(benchmark):
    system = build()
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


#: Size of the gated chain, and the gate on ``speedup_vs_loop``.
GATE_N = 1_000_000
MIN_SPEEDUP = 1.3
REPEATS = 5

#: Filled by :func:`main`; ``regenerate_all --json`` records it.
RATIOS = {}


def _median_time(fn, repeats=REPEATS):
    import time

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def gate_chain(n=GATE_N):
    """Default-``Session`` int ``ADD`` chain vs ``run_ordinary`` vs the
    ``np.add.accumulate`` floor, median of ``REPEATS`` runs each, all
    checked exact.  Returns the timings and ratios."""
    import dataclasses

    from repro.core import ADD
    from repro.engine import Session

    chain = OrdinaryIRSystem.build(
        np.zeros(n + 1, dtype=np.int64), np.arange(1, n + 1), np.arange(n), ADD
    )
    values = np.random.default_rng(0).integers(-1000, 1000, n + 1).tolist()
    session = Session(chain)
    got = session.solve(values)
    want = run_ordinary(dataclasses.replace(chain, initial=values))
    if got.values != want:
        raise AssertionError("Session result differs from the sequential loop")
    engine_s = _median_time(lambda: session.solve(values))
    loop_s = _median_time(
        lambda: run_ordinary(dataclasses.replace(chain, initial=values))
    )
    array = np.asarray(values[1:])
    floor_s = _median_time(lambda: np.add.accumulate(array))
    return {
        "n": n,
        "strategy": got.strategy,
        "engine_s": engine_s,
        "loop_s": loop_s,
        "floor_s": floor_s,
        "speedup_vs_loop": loop_s / engine_s,
        "floor_ratio": engine_s / floor_s,
    }


def main():
    import time

    gate = gate_chain()
    RATIOS.clear()
    RATIOS.update(
        speedup_vs_loop=round(gate["speedup_vs_loop"], 3),
        floor_ratio=round(gate["floor_ratio"], 1),
    )
    print(
        f"int ADD chain, n = {gate['n']:,}, default Session "
        f"(strategy={gate['strategy']}), list in / list out:"
    )
    print(f"  {'session solve':<24} {gate['engine_s']:.4f}s")
    print(f"  {'sequential loop':<24} {gate['loop_s']:.4f}s")
    print(f"  {'np.add.accumulate floor':<24} {gate['floor_s']:.4f}s")
    print(
        f"  speedup_vs_loop = {gate['speedup_vs_loop']:.2f}x "
        f"(gate >= {MIN_SPEEDUP}x); session / floor = "
        f"{gate['floor_ratio']:.0f}x"
    )

    system = build()
    for name, fn in (
        ("sequential loop", lambda: run_ordinary(system)),
        ("numpy engine", lambda: solve(
            system,
            options=EngineOptions(backend="numpy"),
        )),
    ):
        t0 = time.perf_counter()
        fn()
        print(f"{name:<24} {time.perf_counter() - t0:.4f}s  (FLOAT_MUL, n = {N:,})")
    small = build(10_000)
    t0 = time.perf_counter()
    solve(small, options=EngineOptions(backend="python"))
    print(f"{'python parallel engine':<24} {time.perf_counter() - t0:.4f}s  (n = 10,000)")
    if gate["speedup_vs_loop"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup_vs_loop {gate['speedup_vs_loop']:.2f}x < "
            f"{MIN_SPEEDUP}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
