"""Coalescing correctness: a coalesced ``(k, n)`` fan-out must be
bit-identical to ``k`` independent ``Session.solve`` calls -- through
the stacked sweep, through a mid-batch failover reroute, and through a
per-row policy ``partial`` outcome."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equations import OrdinaryIRSystem
from repro.core.moebius import AffineRecurrence
from repro.core.operators import FLOAT_ADD
from repro.engine import (
    EngineOptions,
    Session,
    get_backend,
    register_backend,
)
from repro.engine.backends import Backend, BackendCapabilities, _REGISTRY
from repro.errors import FaultError
from repro.serve.coalescer import CoalesceLane, split_serve_policy
from repro.resilience import SolvePolicy


def affine_chain(n, a, b, m=None):
    m = m or (n + 1)
    return AffineRecurrence.build(
        [0.0] * m,
        g=list(range(1, n + 1)),
        f=list(range(0, n)),
        a=list(a),
        b=list(b),
    )


async def _fan_out(lane, payloads):
    futures = [
        lane.submit(values=row, patch=None, request_id=str(i))
        for i, row in enumerate(payloads)
    ]
    return await asyncio.gather(*futures)


def coalesce(session, payloads, *, window_s=0.001, options=None):
    """Push every payload into one gather window and collect results."""
    lane = CoalesceLane(
        session,
        options=options or session.options,
        base_values=list(session._source.initial),
        window_s=window_s,
    )
    return asyncio.run(_fan_out(lane, payloads))


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-100.0, max_value=100.0
)


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_coalesced_affine_matches_independent_solves(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        a = data.draw(
            st.lists(finite, min_size=n, max_size=n).map(
                lambda xs: [x if x else 1.0 for x in xs]
            )
        )
        b = data.draw(st.lists(finite, min_size=n, max_size=n))
        rec = affine_chain(n, a, b)
        # a small payload pool drawn with replacement: exercises both
        # dedup (repeats) and stacking (distinct rows)
        pool_size = data.draw(st.integers(min_value=1, max_value=3))
        pool = [
            data.draw(
                st.lists(finite, min_size=n + 1, max_size=n + 1)
            )
            for _ in range(pool_size)
        ]
        k = data.draw(st.integers(min_value=1, max_value=6))
        payloads = [
            pool[data.draw(st.integers(0, pool_size - 1))] for _ in range(k)
        ]

        session = Session(rec, options=EngineOptions(backend="numpy"))
        results = coalesce(session, payloads)

        oracle = Session(rec, options=EngineOptions(backend="numpy"))
        for row, result in zip(payloads, results):
            expected = oracle.solve(row)
            assert result.values == expected.values
            assert result.backend == expected.backend
            assert result.family == "moebius"

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_coalesced_ordinary_matches_independent_solves(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        system = OrdinaryIRSystem.build(
            [0.0] * (n + 1),
            list(range(1, n + 1)),
            [data.draw(st.integers(0, i)) for i in range(n)],
            FLOAT_ADD,
        )
        k = data.draw(st.integers(min_value=2, max_value=5))
        payloads = [
            data.draw(st.lists(finite, min_size=n + 1, max_size=n + 1))
            for _ in range(k)
        ]
        session = Session(system, options=EngineOptions(backend="numpy"))
        results = coalesce(session, payloads)
        oracle = Session(system, options=EngineOptions(backend="numpy"))
        for row, result in zip(payloads, results):
            assert result.values == oracle.solve(row).values

    def test_envelope_fields_set(self):
        rec = affine_chain(4, [1.0] * 4, [1.0] * 4)
        session = Session(rec, options=EngineOptions(backend="numpy"))
        results = coalesce(
            session, [[float(i)] * 5 for i in range(3)]
        )
        for i, result in enumerate(results):
            assert result.request_id == str(i)
            assert result.coalesced is True
            assert result.queue_wait_s >= 0.0
        solo = coalesce(session, [[1.0] * 5])
        assert solo[0].coalesced is False


class _BatchPoisonedBackend(Backend):
    """Delegates single solves to numpy but faults every batch --
    the mid-batch failover shape: the stacked sweep dies, per-row
    service must take over."""

    name = "test-batch-poison"

    def __init__(self):
        self._numpy = get_backend("numpy")
        self.capabilities = BackendCapabilities(
            families=self._numpy.capabilities.families,
            exact=False,
            batch=True,
        )
        self.batch_calls = 0

    def execute(self, request):
        return self._numpy.execute(request)

    def execute_batch(self, request, batch_initial, f_initial_batch=None):
        self.batch_calls += 1
        raise FaultError("stacked sweep lost its worker mid-batch")


@pytest.fixture
def poisoned_backend():
    backend = _BatchPoisonedBackend()
    register_backend(backend, overwrite=True)
    try:
        yield backend
    finally:
        _REGISTRY.pop(backend.name, None)


class TestMidBatchReroute:
    def test_reroute_to_per_row_is_bit_identical(self, poisoned_backend):
        rec = affine_chain(6, [1.5] * 6, [0.25] * 6)
        session = Session(
            rec, options=EngineOptions(backend=poisoned_backend.name)
        )
        payloads = [[float(i)] * 7 for i in range(4)]
        results = coalesce(session, payloads)
        assert poisoned_backend.batch_calls == 1  # the batch was tried
        oracle = Session(rec, options=EngineOptions(backend="numpy"))
        for row, result in zip(payloads, results):
            assert result.values == oracle.solve(row).values
        # per-row service still coalesced from the caller's view
        assert all(r.coalesced for r in results)


class TestPerRowPolicy:
    def test_partial_policy_matches_independent_solves(self):
        # a round budget with `partial` semantics is an
        # execution-semantics policy: it must stay on the session and
        # force the per-row path (never shared across a stacked sweep)
        n = 64
        policy = SolvePolicy(max_rounds=1, on_exhaustion="partial")
        opts = EngineOptions(backend="numpy", policy=policy)
        rec = affine_chain(n, [1.0] * n, [1.0] * n)
        engine_opts, deadline = split_serve_policy(opts)
        assert deadline is None  # round budgets are not deadlines
        assert engine_opts.policy is policy

        session = Session(rec, options=engine_opts)
        lane_payloads = [[float(i % 3)] * (n + 1) for i in range(5)]
        results = coalesce(session, lane_payloads)

        oracle = Session(rec, options=engine_opts)
        for row, result in zip(lane_payloads, results):
            expected = oracle.solve(row)
            # the partial outcome (one round of doubling, then stop)
            # must match row-for-row, bit-for-bit
            assert result.values == expected.values

    def test_pure_timeout_policy_is_stripped_for_stacking(self):
        opts = EngineOptions(
            backend="numpy", policy=SolvePolicy(timeout_s=5.0)
        )
        engine_opts, deadline = split_serve_policy(opts)
        assert deadline == 5.0
        assert engine_opts.policy is None

        rec = affine_chain(4, [1.0] * 4, [1.0] * 4)
        session = Session(rec, options=engine_opts)
        lane = CoalesceLane(
            session,
            options=engine_opts,
            base_values=list(rec.initial),
            deadline_s=deadline,
        )
        assert lane.batchable


@pytest.mark.parametrize(
    "a, b",
    [
        ([0.0, 1.0], [-0.0, 1.0]),  # the sign of a zero
        ([0.0, 1], [-0.0, 1.0]),  # mixed types
        ([1, 2], [1.0, 2.0]),  # int vs float
        ([True, 1], [1, 1]),  # bool vs int
        ([2**70, 1], [2**70, 1.0]),  # past int64
    ],
)
def test_payload_key_keeps_types_and_signed_zeros(a, b):
    from repro.serve.coalescer import payload_key

    assert payload_key(a, None) != payload_key(b, None)
    assert payload_key(a, None) == payload_key(list(a), None)
    assert payload_key(None, {0: 0.0}) != payload_key(None, {0: -0.0})
    assert payload_key(None, {0: 1}) != payload_key(None, {0: True})


def test_rows_that_differ_only_in_a_signed_zero_get_their_own_replies():
    system = OrdinaryIRSystem.build([0.0] * 4, [1, 2], [0, 1], FLOAT_ADD)
    rows = [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.0]]
    results = coalesce(Session(system), rows)
    assert [str(r.values[3]) for r in results] == ["0.0", "-0.0"]
