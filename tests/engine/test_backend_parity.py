"""Backend parity: every registered backend must agree with the
sequential oracle on the same systems.

Parametrized by backend name so the CI matrix can select one slice with
``-k "python" / "numpy" / "pram"``.
"""

import numpy as np
import pytest

from repro.core import (
    CONCAT,
    FLOAT_ADD,
    GIRSystem,
    OrdinaryIRSystem,
    RationalRecurrence,
    run_gir,
    run_moebius_sequential,
    run_ordinary,
)
from repro.core.operators import modular_add
from repro.engine import EngineOptions, Session, solve, solve_batch

ORDINARY_BACKENDS = ["python", "numpy", "pram"]
PLANNED_BACKENDS = ["python", "numpy"]


def random_ordinary(rng, n, extra, op=CONCAT, float_values=False):
    m = n + extra
    g = rng.permutation(m)[:n].tolist()
    f = rng.integers(0, m, size=n).tolist()
    if float_values:
        initial = rng.uniform(-2.0, 2.0, size=m).tolist()
    else:
        initial = [(f"s{j}",) for j in range(m)]
    return OrdinaryIRSystem.build(initial, g, f, op)


def random_gir(rng, n, extra, distinct_g=True):
    op = modular_add(97)
    if distinct_g:
        m = n + extra
        g = rng.permutation(m)[:n].tolist()
    else:
        m = max(extra, 1)
        g = rng.integers(0, m, size=n).tolist()
    f = rng.integers(0, m, size=n).tolist()
    h = rng.integers(0, m, size=n).tolist()
    initial = rng.integers(0, 97, size=m).tolist()
    return GIRSystem.build(initial, g, f, h, op)


def adversarial_ordinary():
    """Hand-built worst cases: empty, self-reference, star fan-in,
    reversed assignment order, a chain written back-to-front."""
    yield OrdinaryIRSystem.build([("a",)], [], [], CONCAT)
    yield OrdinaryIRSystem.build([("a",), ("b",)], [1], [1], CONCAT)
    # every iteration reads the same cell (CREW broadcast)
    yield OrdinaryIRSystem.build(
        [(f"s{j}",) for j in range(6)], [1, 2, 3, 4, 5], [0, 0, 0, 0, 0], CONCAT
    )
    # chain assigned in reverse iteration order: deep trace, late writers
    n = 12
    yield OrdinaryIRSystem.build(
        [(f"s{j}",) for j in range(n + 1)],
        list(range(n, 0, -1)),
        list(range(n - 1, -1, -1)),
        CONCAT,
    )
    # two chains sharing one root, different lengths
    yield OrdinaryIRSystem.build(
        [(f"s{j}",) for j in range(8)],
        [1, 2, 3, 5, 6],
        [0, 1, 2, 0, 5],
        CONCAT,
    )


@pytest.mark.parametrize("backend", ORDINARY_BACKENDS)
class TestOrdinaryParity:
    def test_adversarial_systems(self, backend):
        for sys_ in adversarial_ordinary():
            assert (
                solve(sys_, options=EngineOptions(backend=backend)).values
                == run_ordinary(sys_)
            )

    def test_seeded_random_exact(self, backend):
        rng = np.random.default_rng(20260806)
        for trial in range(8):
            sys_ = random_ordinary(rng, n=rng.integers(1, 20), extra=4)
            got = solve(sys_, options=EngineOptions(backend=backend)).values
            assert got == run_ordinary(sys_), f"trial {trial}"

    def test_seeded_random_float_tolerance(self, backend):
        rng = np.random.default_rng(7)
        for _ in range(4):
            sys_ = random_ordinary(
                rng, n=12, extra=3, op=FLOAT_ADD, float_values=True
            )
            got = solve(sys_, options=EngineOptions(backend=backend)).values
            want = run_ordinary(sys_)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_checked_against_oracle(self, backend):
        rng = np.random.default_rng(99)
        sys_ = random_ordinary(rng, n=10, extra=2)
        result = solve(
            sys_,
            options=EngineOptions(
                backend=backend,
                checked=True,
                check_sample=None,
            ),
        )
        assert result.values == run_ordinary(sys_)


@pytest.mark.parametrize("backend", PLANNED_BACKENDS)
class TestGIRParity:
    def test_seeded_random_distinct_g(self, backend):
        rng = np.random.default_rng(11)
        for _ in range(6):
            sys_ = random_gir(rng, n=int(rng.integers(1, 14)), extra=3)
            assert (
                solve(sys_, options=EngineOptions(backend=backend)).values
                == run_gir(sys_)
            )

    def test_seeded_random_repeated_g(self, backend):
        rng = np.random.default_rng(13)
        for _ in range(6):
            sys_ = random_gir(
                rng, n=int(rng.integers(1, 12)), extra=4, distinct_g=False
            )
            assert (
                solve(sys_, options=EngineOptions(backend=backend)).values
                == run_gir(sys_)
            )

    def test_no_dispatch_path(self, backend):
        # force the CAP pipeline even on ordinary-shaped systems
        rng = np.random.default_rng(17)
        sys_ = random_gir(rng, n=8, extra=2)
        got = solve(
            sys_,
            allow_ordinary_dispatch=False,
            options=EngineOptions(backend=backend),
        ).values
        assert got == run_gir(sys_)


@pytest.mark.parametrize("backend", PLANNED_BACKENDS)
class TestMoebiusParity:
    def test_seeded_random_rational(self, backend):
        rng = np.random.default_rng(23)
        for _ in range(4):
            n = int(rng.integers(2, 12))
            m = n + 2
            g = rng.permutation(m)[:n].tolist()
            f = rng.integers(0, m, size=n).tolist()
            rec = RationalRecurrence.build(
                rng.uniform(0.5, 2.0, size=m).tolist(),
                g,
                f,
                rng.uniform(0.5, 1.5, size=n).tolist(),
                rng.uniform(-1.0, 1.0, size=n).tolist(),
                rng.uniform(0.1, 0.4, size=n).tolist(),
                [1.0] * n,
            )
            got = solve(rec, options=EngineOptions(backend=backend)).values
            want = run_moebius_sequential(rec)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("c", [0.0, 0.5], ids=["affine", "rational"])
    def test_untouched_cells_come_back_unchanged(self, backend, c):
        """Cells no iteration writes keep their Python value and type,
        even an int float64 cannot hold (the float kernels scatter onto
        the caller's values, not onto a float64 copy of them)."""
        big = 10**17 + 1
        initial = [3, 1.5, 2.0, 0.25, 4.0, big]
        maps = [1, 2, 3, 4], [0, 1, 2, 3]
        coefficients = [2.0] * 4, [1.0] * 4, [c] * 4, [1.0] * 4
        rec = RationalRecurrence.build(initial, *maps, *coefficients)
        rows = [solve(rec, options=EngineOptions(backend=backend)).values]
        session = Session(rec, options=EngineOptions(backend=backend))
        rows.append(session.solve(initial).values)
        if backend == "numpy":
            rows += solve_batch(rec, [initial, initial])
            # a Session classifies each row: one all-float row does not
            # let the int row scatter onto a float64 copy
            floats, mixed = session.solve_batch([[float(x) for x in initial], initial])
            assert floats[1:5] == mixed[1:5]
            rows.append(mixed)
        for row in rows:
            assert row[0] == 3 and type(row[0]) is int
            assert row[5] == big and type(row[5]) is int
            assert row[1:5] == pytest.approx(run_moebius_sequential(rec)[1:5])


class TestPRAMLimits:
    def test_gir_rejected(self):
        sys_ = GIRSystem.build([1, 2], [1], [0], [0], modular_add(97))
        with pytest.raises(ValueError, match="does not support"):
            solve(sys_, options=EngineOptions(backend="pram"))

    def test_metrics_payload(self):
        sys_ = OrdinaryIRSystem.build(
            [(f"s{j}",) for j in range(5)], [1, 2, 3, 4], [0, 1, 2, 3], CONCAT
        )
        result = solve(
            sys_,
            options=EngineOptions(
                backend="pram",
                backend_options={"processors": 2},
            ),
        )
        assert result.metrics is not None
        assert result.plan is None  # the machine does not plan
