"""Session: the pinned-plan serving API, and front-door kwarg
normalization.

A Session derives the Problem, builds the plan, and resolves the
backend once at construction; every subsequent ``solve`` /
``solve_batch`` replays the pinned plan with zero plan-cache traffic.
These tests assert the pinning (cache counters stay flat across
serves), result parity against the one-shot front door, the serving
counters, and the shared ``ValueError``-on-unknown-kwarg contract
across solve / execute / solve_batch / Session.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.core import (
    ADD,
    CONCAT,
    FLOAT_MUL,
    GIRSystem,
    MAX,
    OrdinaryIRSystem,
    run_gir,
    run_ordinary,
)
from repro.core.moebius import AffineRecurrence, run_moebius_sequential
from repro.engine import (
    EngineOptions,
    Session,
    clear_plan_cache,
    execute,
    plan_cache_info,
    solve,
    solve_batch,
)
from repro.resilience import SolvePolicy


def int_chain(n=120, seed=0):
    rng = np.random.default_rng(seed)
    return OrdinaryIRSystem.build(
        rng.integers(0, 50, size=n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        ADD,
    )


def affine_rec(n=90, seed=1):
    rng = np.random.default_rng(seed)
    return AffineRecurrence.build(
        rng.random(n + 1).tolist(),
        list(range(1, n + 1)),
        list(range(n)),
        a=(rng.random(n) + 0.5).tolist(),
        b=rng.random(n).tolist(),
    )


class TestPinnedPlan:
    def test_plan_built_at_construction(self):
        sys_ = int_chain()
        session = Session(sys_, options=EngineOptions(backend="numpy"))
        assert session.plan is not None
        assert session.family == "ordinary"
        assert session.backend == "numpy"
        assert session.fingerprint == session.problem.fingerprint()

    def test_serving_does_no_cache_traffic(self):
        sys_ = int_chain()
        session = Session(sys_, options=EngineOptions(backend="numpy"))
        clear_plan_cache()
        before = plan_cache_info()
        for _ in range(4):
            session.solve()
        after = plan_cache_info()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_solve_matches_front_door(self):
        sys_ = int_chain(seed=2)
        session = Session(sys_, options=EngineOptions(backend="numpy"))
        assert session.solve().values == solve(
            sys_,
            options=EngineOptions(backend="numpy"),
        ).values

    def test_solve_with_new_values(self):
        sys_ = int_chain(n=80, seed=3)
        session = Session(sys_, options=EngineOptions(backend="numpy"))
        rng = np.random.default_rng(99)
        fresh = rng.integers(0, 50, size=sys_.m).tolist()
        served = session.solve(fresh)
        import dataclasses

        oracle = run_ordinary(dataclasses.replace(sys_, initial=fresh))
        assert served.values == oracle

    def test_wrong_length_values_rejected(self):
        session = Session(
            int_chain(n=30),
            options=EngineOptions(backend="numpy"),
        )
        with pytest.raises(ValueError, match="m="):
            session.solve([1, 2, 3])

    def test_object_operand_session(self):
        initial = [(name,) for name in "abcde"]
        sys_ = OrdinaryIRSystem.build(initial, [1, 2, 3, 4], [0, 1, 2, 3], CONCAT)
        session = Session(sys_)  # auto -> numpy, object path
        assert session.solve().values == run_ordinary(sys_)

    def test_gir_plan_pinned_from_first_solve(self):
        sys_ = GIRSystem.build(
            [1, 2, 3, 4, 5], [1, 2, 3], [0, 1, 2], [4, 4, 4], MAX
        )
        session = Session(sys_, options=EngineOptions(backend="numpy"))
        assert session.plan is None  # GIR planning runs inside the executor
        first = session.solve()
        assert first.values == run_gir(sys_)
        assert session.plan is not None
        pinned = session.plan
        session.solve()
        assert session.plan is pinned

    def test_moebius_session(self):
        rec = affine_rec()
        session = Session(rec, options=EngineOptions(backend="numpy"))
        assert session.plan is not None
        assert session.solve().values == pytest.approx(
            run_moebius_sequential(rec)
        )

    def test_policy_rejected_on_pram(self):
        with pytest.raises(ValueError, match="SolvePolicy"):
            Session(
                int_chain(n=20),
                options=EngineOptions(
                    backend="pram",
                    policy=SolvePolicy(max_rounds=1),
                ),
            )


class TestServingCounters:
    def test_session_solves_counted(self):
        sys_ = int_chain(seed=5)
        with obs.observed() as (_tracer, registry):
            session = Session(sys_, options=EngineOptions(backend="numpy"))
            for _ in range(3):
                session.solve()
        count = registry.value(
            "engine.session.solves", backend="numpy", family="ordinary"
        )
        assert count == 3

    def test_batch_counts_rows_and_batches(self):
        sys_ = int_chain(n=60, seed=6)
        rng = np.random.default_rng(7)
        batch = rng.integers(0, 50, size=(5, sys_.m)).tolist()
        with obs.observed() as (_tracer, registry):
            session = Session(sys_, options=EngineOptions(backend="numpy"))
            rows = session.solve_batch(batch)
        assert len(rows) == 5
        assert (
            registry.value(
                "engine.session.solves", backend="numpy", family="ordinary"
            )
            == 5
        )
        assert (
            registry.value("engine.session.batch.solves", backend="numpy") == 1
        )


class TestSessionBatch:
    def test_batch_matches_per_row(self):
        sys_ = int_chain(n=70, seed=8)
        rng = np.random.default_rng(9)
        batch = rng.integers(0, 50, size=(4, sys_.m)).tolist()
        session = Session(sys_, options=EngineOptions(backend="numpy"))
        rows = session.solve_batch(batch)
        import dataclasses

        for row_in, row_out in zip(batch, rows):
            assert row_out == run_ordinary(
                dataclasses.replace(sys_, initial=list(row_in))
            )

    def test_batch_rejected_without_capability(self):
        session = Session(
            int_chain(n=20),
            options=EngineOptions(backend="python"),
        )
        with pytest.raises(ValueError, match="batch"):
            session.solve_batch([[0] * 21])


class TestMoebiusBatch:
    def test_affine_batch_stacked_matches_per_row(self):
        rec = affine_rec(n=60, seed=10)
        rng = np.random.default_rng(11)
        batch = rng.random((5, len(rec.initial))).tolist()
        rows = solve_batch(rec, batch, options=EngineOptions(backend="numpy"))
        import dataclasses

        for row_in, row_out in zip(batch, rows):
            one = solve(
                dataclasses.replace(rec, initial=list(row_in)),
                options=EngineOptions(backend="numpy"),
            )
            assert row_out == pytest.approx(one.values, rel=0, abs=0)

    def test_fraction_batch_falls_back_per_row(self):
        n = 12
        rec = AffineRecurrence.build(
            [Fraction(k + 1, 3) for k in range(n + 1)],
            list(range(1, n + 1)),
            list(range(n)),
            a=[Fraction(1, 2)] * n,
            b=[Fraction(1, 3)] * n,
        )
        batch = [
            [Fraction(k + 2, 5) for k in range(n + 1)],
            [Fraction(k + 7, 2) for k in range(n + 1)],
        ]
        rows = solve_batch(rec, batch, options=EngineOptions(backend="numpy"))
        import dataclasses

        for row_in, row_out in zip(batch, rows):
            seq = run_moebius_sequential(
                dataclasses.replace(rec, initial=list(row_in))
            )
            assert row_out == seq
            assert all(isinstance(v, Fraction) for v in row_out)

    def test_session_moebius_batch(self):
        rec = affine_rec(n=40, seed=12)
        rng = np.random.default_rng(13)
        batch = rng.random((3, len(rec.initial))).tolist()
        session = Session(rec, options=EngineOptions(backend="numpy"))
        rows = session.solve_batch(batch)
        assert rows == solve_batch(
            rec,
            batch,
            options=EngineOptions(backend="numpy"),
        )


class TestKwargNormalization:
    """Every front door takes its configuration as one ``options=``
    record and rejects anything else with a ValueError that names both
    the offender and the valid set."""

    def _assert_named(self, err, offender="bogus"):
        msg = str(err.value)
        assert offender in msg
        assert "valid keywords" in msg

    def test_solve_rejects_unknown(self):
        with pytest.raises(ValueError) as err:
            solve(int_chain(n=10), bogus=1)
        self._assert_named(err)

    def test_execute_rejects_unknown(self):
        sys_ = int_chain(n=10)
        plan = solve(sys_).plan
        with pytest.raises(ValueError) as err:
            execute(plan, sys_, bogus=1)
        self._assert_named(err)

    def test_execute_rejects_plan_kwarg(self):
        # ``plan`` is positional in execute(); repeating it as a
        # keyword is a duplicate-argument TypeError, not a silent win.
        sys_ = int_chain(n=10)
        plan = solve(sys_).plan
        with pytest.raises(TypeError, match="plan"):
            execute(plan, sys_, plan=plan)

    def test_solve_batch_rejects_unknown(self):
        sys_ = int_chain(n=10)
        with pytest.raises(ValueError) as err:
            solve_batch(sys_, [sys_.initial], bogus=1)
        self._assert_named(err)

    def test_session_init_rejects_unknown(self):
        with pytest.raises(ValueError) as err:
            Session(int_chain(n=10), bogus=1)
        self._assert_named(err)

    def test_session_solve_rejects_unknown(self):
        session = Session(int_chain(n=10))
        with pytest.raises(ValueError) as err:
            session.solve(bogus=1)
        self._assert_named(err)

    def test_session_solve_batch_rejects_unknown(self):
        session = Session(
            int_chain(n=10),
            options=EngineOptions(backend="numpy"),
        )
        with pytest.raises(ValueError) as err:
            session.solve_batch([list(range(11))], bogus=1)
        self._assert_named(err)

    def test_shared_knobs_accepted_everywhere(self):
        sys_ = int_chain(n=20, seed=14)
        policy = SolvePolicy(max_rounds=64, on_exhaustion="raise")
        oracle = run_ordinary(sys_)
        r1 = solve(
            sys_,
            options=EngineOptions(
                backend="numpy",
                policy=policy,
                checked=True,
            ),
        )
        assert r1.values == oracle
        r2 = execute(
            r1.plan,
            sys_,
            options=EngineOptions(
                backend="numpy",
                policy=policy,
                checked=True,
            ),
        )
        assert r2.values == oracle
        rows = solve_batch(
            sys_,
            [sys_.initial],
            options=EngineOptions(
                backend="numpy",
                policy=policy,
                checked=True,
            ),
        )
        assert rows[0] == oracle
        session = Session(
            sys_,
            options=EngineOptions(
                backend="numpy",
                policy=policy,
                checked=True,
            ),
        )
        assert session.solve().values == oracle
