"""Wall-clock comparison of the library's execution engines against the
paper's sequential loop.

``main()`` is a gated bench (``check_regression.GATED``): at n = 1M an
int ``ADD`` chain is solved by a default ``Session`` -- list in, list
out, exactly what a caller pays -- and timed in one process against
the sequential loop (``run_ordinary``), against the C floor (one
``np.add.accumulate`` over the same values, already an array) and
against the list-I/O floor (the strict list -> int64 conversion plus
one ``tolist``, no kernel).  The three ratios land in
``BENCH_results.json`` (the record's ``ratios``); the gate is
``speedup_vs_loop >= MIN_SPEEDUP``.  The planner picks the chain
layout for this problem, so the solve is one ``accumulate`` in the
admitted buffer plus the list conversions; ``io_floor_ratio`` (session
/ list-I/O floor) shows how little else is left.

The affine row does the same for a 200k affine Moebius chain
(``X[i+1] = a[i]*X[i] + b[i]``, uniform coefficients and values in
``[-1, 1]``): a default ``Session`` against ``run_moebius_sequential``,
checked within ``rtol = atol = 1e-9`` and gated at
``affine_speedup_vs_loop >= MIN_AFFINE_SPEEDUP``.  The plan is a chain
layout, so the solve is one tiled affine scan.

The pytest-benchmark tests below time the smaller engine matrix (the
parallel algorithm's rounds do log n times more work; the paper's
speedups are in *simulated processor time*, which
bench_fig3_ordinary_ir.py covers).
"""

import numpy as np

from repro.core import ADD, FLOAT_MUL, OrdinaryIRSystem, run_ordinary
from repro.engine import EngineOptions, solve
from repro.engine.exec_ordinary import admit

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
#: Size of the gated affine chain, and its gate.
AFFINE_N = 200_000
MIN_AFFINE_SPEEDUP = 1.5
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


def _list_io(values):
    """The list-I/O floor: ``values`` admitted for ``ADD`` (the
    engine's strict list -> int64 pass) and back out with one
    ``tolist`` -- the conversions a list-in, list-out solve cannot
    avoid, with no kernel between them."""
    return admit(values, ADD).tolist()


def gate_chain(n=GATE_N):
    """Default-``Session`` int ``ADD`` chain vs ``run_ordinary`` vs the
    ``np.add.accumulate`` floor vs the list-I/O floor, median of
    ``REPEATS`` runs each, all checked exact.  Returns the timings and
    ratios."""
    import dataclasses

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
    accumulated = np.asarray(values[1:])
    floor_s = _median_time(lambda: np.add.accumulate(accumulated))
    if _list_io(values) != values:
        raise AssertionError("the list-I/O floor does not round-trip")
    io_floor_s = _median_time(lambda: _list_io(values))
    return {
        "n": n,
        "strategy": got.strategy,
        "engine_s": engine_s,
        "loop_s": loop_s,
        "floor_s": floor_s,
        "speedup_vs_loop": loop_s / engine_s,
        "floor_ratio": engine_s / floor_s,
        "io_floor_s": io_floor_s,
        "io_floor_ratio": engine_s / io_floor_s,
    }


def gate_affine(n=AFFINE_N):
    """Default-``Session`` affine chain vs ``run_moebius_sequential``,
    median of ``REPEATS`` runs each, checked within ``rtol = atol =
    1e-9``.  Returns the timings and the ratio."""
    import dataclasses

    from repro.core.moebius import AffineRecurrence, run_moebius_sequential
    from repro.engine import Session

    rng = np.random.default_rng(0)
    rec = AffineRecurrence.build(
        [0.0] * (n + 1),
        np.arange(1, n + 1),
        np.arange(n),
        rng.uniform(-1.0, 1.0, n).tolist(),
        rng.uniform(-1.0, 1.0, n).tolist(),
    )
    values = rng.uniform(-1.0, 1.0, n + 1).tolist()
    session = Session(rec)
    got = session.solve(values)
    want = run_moebius_sequential(dataclasses.replace(rec, initial=values))
    if not np.allclose(got.values, want, rtol=1e-9, atol=1e-9):
        raise AssertionError("Session result differs from the sequential loop")
    engine_s = _median_time(lambda: session.solve(values))
    loop_s = _median_time(
        lambda: run_moebius_sequential(dataclasses.replace(rec, initial=values))
    )
    return {
        "n": n,
        "strategy": got.strategy,
        "engine_s": engine_s,
        "loop_s": loop_s,
        "speedup_vs_loop": loop_s / engine_s,
    }


def main():
    import time

    gate = gate_chain()
    affine = gate_affine()
    RATIOS.clear()
    RATIOS.update(
        speedup_vs_loop=round(gate["speedup_vs_loop"], 3),
        floor_ratio=round(gate["floor_ratio"], 1),
        io_floor_ratio=round(gate["io_floor_ratio"], 2),
        affine_speedup_vs_loop=round(affine["speedup_vs_loop"], 3),
    )
    print(
        f"int ADD chain, n = {gate['n']:,}, default Session "
        f"(strategy={gate['strategy']}), list in / list out:"
    )
    print(f"  {'session solve':<24} {gate['engine_s']:.4f}s")
    print(f"  {'sequential loop':<24} {gate['loop_s']:.4f}s")
    print(f"  {'np.add.accumulate floor':<24} {gate['floor_s']:.4f}s")
    print(f"  {'list-I/O floor':<24} {gate['io_floor_s']:.4f}s")
    print(
        f"  speedup_vs_loop = {gate['speedup_vs_loop']:.2f}x "
        f"(gate >= {MIN_SPEEDUP}x); session / floor = "
        f"{gate['floor_ratio']:.0f}x; session / list-io floor = "
        f"{gate['io_floor_ratio']:.2f}x"
    )
    print(
        f"affine chain, n = {affine['n']:,}, default Session "
        f"(strategy={affine['strategy']}), list in / list out:"
    )
    print(f"  {'session solve':<24} {affine['engine_s']:.4f}s")
    print(f"  {'sequential loop':<24} {affine['loop_s']:.4f}s")
    print(
        f"  affine_speedup_vs_loop = {affine['speedup_vs_loop']:.2f}x "
        f"(gate >= {MIN_AFFINE_SPEEDUP}x)"
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
    status = 0
    if gate["speedup_vs_loop"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup_vs_loop {gate['speedup_vs_loop']:.2f}x < "
            f"{MIN_SPEEDUP}x"
        )
        status = 1
    if affine["speedup_vs_loop"] < MIN_AFFINE_SPEEDUP:
        print(
            f"FAIL: affine_speedup_vs_loop {affine['speedup_vs_loop']:.2f}x < "
            f"{MIN_AFFINE_SPEEDUP}x"
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
