"""Cumulative SolvePolicy budgets across batched per-row fallbacks.

``solve_batch`` with an object-dtype operator (ordinary) or a
non-stackable recurrence (moebius) replays the shared plan per row.
Historically each row minted a FRESH enforcer, so a ``t``-second
timeout stretched to ``k * t`` across ``k`` rows; the drivers now
thread one budget through :func:`SolvePolicy.with_remaining`.  These
tests drive a fake :func:`repro.resilience.policy.budget_clock` from
inside the operator, so the timeout behaviour is deterministic.
"""

from fractions import Fraction

import pytest

from repro.core import OrdinaryIRSystem
from repro.core.moebius import RationalRecurrence
from repro.core.operators import Operator
from repro.engine import EngineOptions, solve_batch
from repro.errors import SolveTimeoutError
from repro.resilience import SolvePolicy
from repro.resilience import policy as policy_mod


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(policy_mod, "budget_clock", fake)
    return fake


def ticking_chain(clock, n=6, cost_s=0.1):
    """An int chain whose (object) operator advances the fake clock:
    every combine costs ``cost_s`` fake-seconds."""

    def add(a, b):
        clock.now += cost_s
        return a + b

    op = Operator(
        name="ticking-add", fn=add, associative=True, commutative=True,
        identity=0,
    )
    return OrdinaryIRSystem.build(
        initial=list(range(1, n + 2)),
        g=list(range(1, n + 1)),
        f=list(range(n)),
        op=op,
    )


class TestOrdinaryBatchBudget:
    def test_single_row_fits_the_budget(self, clock):
        sys_ = ticking_chain(clock)
        policy = SolvePolicy(timeout_s=100.0, on_exhaustion="raise")
        rows = solve_batch(
            sys_,
            [sys_.initial],
            options=EngineOptions(backend="numpy", policy=policy),
        )
        assert len(rows) == 1
        assert clock.now > 0  # the operator really drove the clock

    def test_budget_is_cumulative_across_rows(self, clock):
        sys_ = ticking_chain(clock)
        # generous for any single row, far too small for 40 of them
        one_row_cost = _measure_row_cost(clock, sys_)
        policy = SolvePolicy(
            timeout_s=one_row_cost * 3, on_exhaustion="raise"
        )
        clock.now = 0.0
        with pytest.raises(SolveTimeoutError):
            solve_batch(
                sys_,
                [sys_.initial] * 40,
                options=EngineOptions(backend="numpy", policy=policy),
            )

    def test_rows_within_budget_still_complete(self, clock):
        sys_ = ticking_chain(clock)
        one_row_cost = _measure_row_cost(clock, sys_)
        policy = SolvePolicy(
            timeout_s=one_row_cost * 100, on_exhaustion="raise"
        )
        clock.now = 0.0
        rows = solve_batch(
            sys_,
            [sys_.initial] * 5,
            options=EngineOptions(backend="numpy", policy=policy),
        )
        assert len(rows) == 5

    def test_exhausted_budget_trips_the_next_row_immediately(self, clock):
        policy = SolvePolicy(timeout_s=1.0)
        t0 = policy_mod.budget_clock()
        clock.now = 5.0  # the batch has already overspent
        rowp = policy.with_remaining(t0)
        assert rowp.timeout_s == 0.0

    def test_with_remaining_passthrough_without_timeout(self, clock):
        policy = SolvePolicy(max_rounds=9)
        assert policy.with_remaining(0.0) is policy


def _measure_row_cost(clock, sys_):
    before = clock.now
    solve_batch(sys_, [sys_.initial], options=EngineOptions(backend="numpy"))
    return max(clock.now - before, 1e-9)


class TestMoebiusBatchBudget:
    def make_rec(self, n=5):
        # Fraction coefficients: non-stackable -> per-row replay
        return RationalRecurrence.build(
            [Fraction(1, 2)] * (n + 1),
            list(range(1, n + 1)),
            list(range(n)),
            a=[Fraction(1)] * n,
            b=[Fraction(1, 3)] * n,
            c=[Fraction(0)] * n,
            d=[Fraction(1)] * n,
        )

    def test_budget_is_cumulative_across_rows(self, clock):
        rec = self.make_rec()
        policy = SolvePolicy(timeout_s=1.0, on_exhaustion="raise")

        # Advance the clock past the whole budget between rows by
        # patching the clock forward on every enforcer poll.
        calls = {"n": 0}

        def advancing():
            calls["n"] += 1
            clock.now += 0.3
            return clock.now

        import unittest.mock as mock

        with mock.patch.object(policy_mod, "budget_clock", advancing):
            with pytest.raises(SolveTimeoutError):
                solve_batch(
                    rec,
                    [rec.initial] * 50,
                    options=EngineOptions(backend="numpy", policy=policy),
                )

    def test_unbudgeted_batch_is_unaffected(self, clock):
        rec = self.make_rec()
        rows = solve_batch(
            rec,
            [rec.initial] * 3,
            options=EngineOptions(backend="numpy"),
        )
        assert len(rows) == 3
