"""The backend failover ladder and its circuit breakers.

Covers ladder construction (downward-only degradation, capability
filtering, pram opt-out), breaker state transitions under a fake
clock, transparent failover from a persistently crashing shm pool to
the numpy backend (solve and Session), the ``failover=False`` raw-fault
escape hatch, and breaker short-circuiting of a known-sick rung.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.core import ADD, OrdinaryIRSystem, run_ordinary
from repro.engine import (
    EngineOptions,
    Session,
    failover_ladder,
    get_backend,
    solve,
)
from repro.engine.problem import Problem
from repro.errors import FaultError
from repro.resilience.breaker import (
    BreakerConfig,
    CircuitBreaker,
    breakers_snapshot,
    configure_breakers,
    get_breaker,
)

WORKERS = int(os.environ.get("REPRO_SHM_TEST_WORKERS", "2"))

PERSISTENT_CRASH = {"rank": 0, "round": 1, "once": False}


def int_chain(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return OrdinaryIRSystem.build(
        rng.integers(0, 100, size=n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        ADD,
    )


class TestLadderShape:
    def test_shm_degrades_to_numpy_then_python(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("shm"), problem)
        assert [b.name for b in rungs] == ["shm", "numpy", "python"]

    def test_numpy_degrades_to_python_only(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("numpy"), problem)
        assert [b.name for b in rungs] == ["numpy", "python"]

    def test_python_is_the_last_rung(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("python"), problem)
        assert [b.name for b in rungs] == ["python"]

    def test_pram_never_reroutes(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("pram"), problem)
        assert [b.name for b in rungs] == ["pram"]

    def test_batch_filters_non_batch_rungs(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("numpy"), problem, batch=True)
        assert [b.name for b in rungs] == ["numpy"]


class TestBreakerTransitions:
    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(("fp", "shm"), BreakerConfig(threshold=3))
        assert b.state == "closed"
        b.record_failure()
        b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open" and not b.allow()

    def test_success_resets_the_failure_count(self):
        b = CircuitBreaker(("fp", "shm"), BreakerConfig(threshold=2))
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == "closed"

    def test_half_open_probe_after_cooldown(self):
        now = [0.0]
        b = CircuitBreaker(
            ("fp", "shm"),
            BreakerConfig(threshold=1, cooldown_s=10.0),
            clock=lambda: now[0],
        )
        b.record_failure()
        assert b.state == "open" and not b.allow()
        now[0] = 9.9
        assert not b.allow()
        now[0] = 10.0
        assert b.allow()  # the single probe
        assert b.state == "half-open"
        assert not b.allow()  # probe in flight: nothing else admitted

    def test_probe_success_closes(self):
        now = [0.0]
        b = CircuitBreaker(
            ("fp", "shm"),
            BreakerConfig(threshold=1, cooldown_s=1.0),
            clock=lambda: now[0],
        )
        b.record_failure()
        now[0] = 2.0
        assert b.allow()
        b.record_success()
        assert b.state == "closed" and b.failures == 0

    def test_probe_failure_reopens_for_another_cooldown(self):
        now = [0.0]
        b = CircuitBreaker(
            ("fp", "shm"),
            BreakerConfig(threshold=1, cooldown_s=5.0),
            clock=lambda: now[0],
        )
        b.record_failure()
        now[0] = 5.0
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        now[0] = 9.0
        assert not b.allow()  # new cooldown runs from the re-open
        now[0] = 10.0
        assert b.allow()

    def test_registry_and_snapshot(self):
        breaker = get_breaker("f" * 64, "shm")
        assert get_breaker("f" * 64, "shm") is breaker
        breaker.record_failure()
        snap = breakers_snapshot()
        assert snap[f"{'f' * 12}/shm"]["failures"] == 1


class TestSolveFailover:
    def test_persistent_crash_fails_over_to_numpy(self):
        sys_ = int_chain(seed=11)
        with obs.observed() as (_tracer, registry):
            res = solve(
                sys_,
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    backend_options={"_test_crash": PERSISTENT_CRASH},
                ),
            )
        assert res.values == run_ordinary(sys_)
        assert res.backend == "numpy"
        assert res.failover_from == "shm"
        reroutes = sum(
            e["value"]
            for e in registry.snapshot()
            if e["name"] == "engine.failover.reroutes"
        )
        assert reroutes >= 1

    def test_failover_false_surfaces_the_raw_fault(self):
        with pytest.raises(FaultError):
            solve(
                int_chain(seed=11),
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    failover=False,
                    backend_options={"_test_crash": PERSISTENT_CRASH},
                ),
            )

    def test_breaker_opens_then_short_circuits_the_sick_rung(self):
        configure_breakers(threshold=1, cooldown_s=600.0)
        sys_ = int_chain(seed=12)
        opts = EngineOptions(
            backend="shm",
            workers=WORKERS,
            backend_options={"_test_crash": PERSISTENT_CRASH},
        )
        first = solve(sys_, options=opts)
        assert first.backend == "numpy"
        fp = Problem.from_system(sys_).fingerprint()
        assert get_breaker(fp, "shm").state == "open"
        with obs.observed() as (_tracer, registry):
            second = solve(sys_, options=opts)
        assert second.backend == "numpy"
        assert second.values == run_ordinary(sys_)
        snap = registry.snapshot()
        shorted = sum(
            e["value"]
            for e in snap
            if e["name"] == "engine.failover.short_circuits"
        )
        assert shorted >= 1
        # the short-circuited rung never ran: no respawn churn recorded
        respawns = sum(
            e["value"] for e in snap if e["name"] == "engine.shm.respawns"
        )
        assert respawns == 0

    def test_healthy_solve_reports_no_failover(self):
        res = solve(
            int_chain(seed=13),
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        assert res.backend == "shm"
        assert res.failover_from is None


class TestSessionFailover:
    def test_session_survives_single_crash_on_shm(self):
        sys_ = int_chain(n=600, seed=14)
        session = Session(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                backend_options={"_test_crash": {"rank": 0, "round": 1, "once": True}},
            ),
        )
        res = session.solve()
        assert res.values == run_ordinary(sys_)
        assert res.backend == "shm"  # respawn-and-retry, not failover
        assert res.failover_from is None

    def test_session_fails_over_on_persistent_crash(self):
        sys_ = int_chain(n=600, seed=15)
        session = Session(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                backend_options={"_test_crash": PERSISTENT_CRASH},
            ),
        )
        res = session.solve()
        assert res.values == run_ordinary(sys_)
        assert res.backend == "numpy"
        assert res.failover_from == "shm"

    def test_session_failover_false_raises(self):
        sys_ = int_chain(n=600, seed=16)
        session = Session(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                failover=False,
                backend_options={"_test_crash": PERSISTENT_CRASH},
            ),
        )
        with pytest.raises(FaultError):
            session.solve()

    def test_session_recovers_service_after_breaker_cooldown(self):
        # Half-open probe: after the cooldown the shm rung is retried,
        # and once the (transient) fault has cleared it serves again.
        configure_breakers(threshold=1, cooldown_s=0.0)
        sys_ = int_chain(n=600, seed=17)
        sick = Session(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                backend_options={"_test_crash": PERSISTENT_CRASH},
            ),
        )
        assert sick.solve().backend == "numpy"
        healthy = Session(
            sys_,
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        res = healthy.solve()  # cooldown 0: probe admitted immediately
        assert res.backend == "shm"
        assert res.values == run_ordinary(sys_)
        fp = Problem.from_system(sys_).fingerprint()
        assert get_breaker(fp, "shm").state == "closed"
