"""The shm backend: shared-memory multiprocess execution.

Covers registry/capability wiring, element-exact parity against the
sequential oracle (int64) and bitwise parity against the numpy backend
(float64), the Moebius affine path, worker-crash recovery
(respawn-and-retry once, then the structured exit-code-7 fault),
SolvePolicy budgets across workers, and the typed-operator
requirement.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.core import (
    ADD,
    CONCAT,
    FLOAT_MUL,
    OrdinaryIRSystem,
    run_ordinary,
)
from repro.core.moebius import (
    AffineRecurrence,
    RationalRecurrence,
    run_moebius_sequential,
)
from repro.engine import EngineOptions, available_backends, get_backend, solve
from repro.errors import (
    FaultError,
    IterationBudgetExceeded,
    SolveTimeoutError,
)
from repro.resilience import SolvePolicy

# CI sweeps the pool width (2 and 4); default stays light locally.
# The pool is persistent, so one width serves the whole module.
WORKERS = int(os.environ.get("REPRO_SHM_TEST_WORKERS", "2"))


def int_chain(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return OrdinaryIRSystem.build(
        rng.integers(0, 100, size=n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        ADD,
    )


def float_random(n=300, seed=1):
    rng = np.random.default_rng(seed)
    m = n + 7
    g = rng.permutation(m)[:n]
    f = rng.integers(0, m, size=n)
    return OrdinaryIRSystem.build(
        (rng.random(m) + 0.5).tolist(), g, f, FLOAT_MUL
    )


def affine_rec(n=250, seed=2):
    rng = np.random.default_rng(seed)
    return AffineRecurrence.build(
        rng.random(n + 1).tolist(),
        list(range(1, n + 1)),
        list(range(n)),
        a=(rng.random(n) + 0.5).tolist(),
        b=rng.random(n).tolist(),
    )


class TestRegistry:
    def test_registered_with_capabilities(self):
        assert "shm" in available_backends()
        caps = get_backend("shm").capabilities
        assert caps.families == frozenset({"ordinary", "gir", "moebius"})
        assert caps.supports_policy
        assert not caps.batch
        assert not caps.exact

    def test_gir_family_served(self):
        from repro.core import GIRSystem, MAX, run_gir

        sys_ = GIRSystem.build([0, 1, 2, 3], [1, 2], [0, 1], [3, 3], MAX)
        res = solve(sys_, options=EngineOptions(backend="shm", workers=2))
        assert res.values == run_gir(sys_)
        assert res.backend == "shm"


class TestParity:
    def test_int_chain_exact_vs_oracle(self):
        sys_ = int_chain()
        res = solve(
            sys_,
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        assert res.values == run_ordinary(sys_)
        assert res.backend == "shm"

    def test_float_random_bitwise_vs_numpy(self):
        sys_ = float_random()
        shm = solve(
            sys_,
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        ref = solve(sys_, options=EngineOptions(backend="numpy"))
        assert shm.values == ref.values  # same op order => bit-identical

    def test_worker_counts_agree(self):
        sys_ = int_chain(n=123, seed=5)
        oracle = run_ordinary(sys_)
        for workers in (1, 3):
            res = solve(
                sys_,
                options=EngineOptions(backend="shm", workers=workers),
            )
            assert res.values == oracle, workers

    def test_checked_passes(self):
        res = solve(
            int_chain(),
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                checked=True,
            ),
        )
        assert res.values == run_ordinary(int_chain())

    def test_stats_and_plan(self):
        sys_ = int_chain(n=64)
        res = solve(
            sys_,
            collect_stats=True,
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        assert res.plan is not None
        assert res.stats.rounds == res.plan.rounds
        assert res.stats.active_per_round == res.plan.active_per_round

    def test_moebius_affine_parity(self):
        rec = affine_rec()
        shm = solve(rec, options=EngineOptions(backend="shm", workers=WORKERS))
        ref = solve(rec, options=EngineOptions(backend="numpy"))
        assert shm.values == ref.values

    def test_moebius_affine_vs_sequential(self):
        rec = affine_rec(n=60, seed=9)
        shm = solve(rec, options=EngineOptions(backend="shm", workers=WORKERS))
        seq = run_moebius_sequential(rec)
        assert shm.values == pytest.approx(seq)

    def test_f_initial_override(self):
        sys_ = int_chain(n=50, seed=11)
        f_init = [7] * sys_.m
        shm = solve(
            sys_,
            f_initial=f_init,
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        ref = solve(
            sys_,
            f_initial=f_init,
            options=EngineOptions(backend="numpy"),
        )
        assert shm.values == ref.values


class TestTypedOperatorRequirement:
    def test_object_operator_rejected(self):
        sys_ = OrdinaryIRSystem.build(
            [("a",), ("b",), ("c",), ("d",)], [1, 2, 3], [0, 1, 2], CONCAT
        )
        with pytest.raises(ValueError, match="typed operator"):
            solve(sys_, options=EngineOptions(backend="shm"))

    def test_non_affine_moebius_rejected(self):
        rec = RationalRecurrence.build(
            [1.0, 0.5], [1], [0], a=[1.0], b=[2.0], c=[1.0], d=[1.0]
        )
        with pytest.raises(ValueError, match="affine"):
            solve(rec, options=EngineOptions(backend="shm"))


class TestCrashRecovery:
    def test_crash_once_recovers_and_counts_respawn(self):
        sys_ = int_chain(n=600, seed=3)
        oracle = run_ordinary(sys_)
        with obs.observed() as (_tracer, registry):
            res = solve(
                sys_,
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    backend_options={
                        "_test_crash": {"rank": 1, "round": 2, "once": True},
                    },
                ),
            )
        assert res.values == oracle
        snap = registry.snapshot()
        respawns = sum(
            e["value"] for e in snap if e["name"] == "engine.shm.respawns"
        )
        assert respawns >= 1

    def test_crash_twice_raises_structured_fault(self):
        sys_ = int_chain(n=600, seed=4)
        with pytest.raises(FaultError) as info:
            solve(
                sys_,
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    failover=False,
                    backend_options={
                        "_test_crash": {"rank": 0, "round": 1, "once": False},
                    },
                ),
            )
        assert info.value.exit_code == 7

    def test_crash_twice_fails_over_by_default(self):
        sys_ = int_chain(n=600, seed=4)
        res = solve(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                backend_options={"_test_crash": {"rank": 0, "round": 1, "once": False}},
            ),
        )
        assert res.values == run_ordinary(sys_)
        assert res.backend == "numpy"
        assert res.failover_from == "shm"

    def test_pool_survives_fault(self):
        sys_ = int_chain(n=600, seed=4)
        with pytest.raises(FaultError):
            solve(
                sys_,
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    failover=False,
                    backend_options={
                        "_test_crash": {"rank": 0, "round": 0, "once": False},
                    },
                ),
            )
        res = solve(
            sys_,
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        assert res.values == run_ordinary(sys_)


class TestPolicy:
    def test_timeout_raise(self):
        policy = SolvePolicy(timeout_s=0.0, on_exhaustion="raise")
        with pytest.raises(SolveTimeoutError):
            solve(
                int_chain(),
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    policy=policy,
                ),
            )

    def test_timeout_fallback_matches_oracle(self):
        sys_ = int_chain(seed=6)
        policy = SolvePolicy(timeout_s=0.0, on_exhaustion="fallback")
        res = solve(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                policy=policy,
            ),
        )
        assert res.values == run_ordinary(sys_)

    def test_max_rounds_raise(self):
        policy = SolvePolicy(max_rounds=1, on_exhaustion="raise")
        with pytest.raises(IterationBudgetExceeded):
            solve(
                int_chain(),
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    policy=policy,
                ),
            )

    def test_max_rounds_partial_matches_numpy_partial(self):
        sys_ = int_chain(seed=7)
        policy = SolvePolicy(max_rounds=3, on_exhaustion="partial")
        shm = solve(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                policy=policy,
            ),
        )
        ref = solve(
            sys_,
            options=EngineOptions(backend="numpy", policy=policy),
        )
        assert shm.values == ref.values

    def test_max_rounds_fallback_matches_oracle(self):
        sys_ = int_chain(seed=8)
        policy = SolvePolicy(max_rounds=1, on_exhaustion="fallback")
        res = solve(
            sys_,
            options=EngineOptions(
                backend="shm",
                workers=WORKERS,
                policy=policy,
            ),
        )
        assert res.values == run_ordinary(sys_)


    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_round_budget_partial_agrees_across_backends(self, rounds):
        # A round budget is a policy, with one meaning on every backend:
        # the state after exactly `rounds` rounds, never the full answer.
        sys_ = int_chain(n=16, seed=13)
        policy = SolvePolicy(max_rounds=rounds, on_exhaustion="partial")
        results = {
            backend: solve(
                sys_,
                collect_stats=True,
                options=EngineOptions(
                    backend=backend, workers=WORKERS, policy=policy
                ),
            )
            for backend in ("python", "numpy", "shm")
        }
        values = {b: r.values for b, r in results.items()}
        assert values["python"] == values["numpy"] == values["shm"]
        assert values["numpy"] != run_ordinary(sys_)
        assert all(r.stats.rounds == rounds for r in results.values())


class TestObservability:
    def test_engine_shm_metrics_emitted(self):
        sys_ = int_chain(n=200, seed=10)
        with obs.observed() as (_tracer, registry):
            solve(sys_, options=EngineOptions(backend="shm", workers=WORKERS))
        snap = registry.snapshot()
        names = {e["name"] for e in snap}
        assert "engine.shm.solves" in names
        assert "engine.shm.rounds" in names
        assert "engine.shm.workers" in names
        assert "engine.shm.shard_cells" in names
        assert "engine.shm.barrier_wait_s" in names
        workers_gauge = [
            e for e in snap if e["name"] == "engine.shm.workers"
        ]
        assert workers_gauge[0]["value"] == WORKERS

    def test_schedule_uploaded_once_then_reused(self):
        sys_ = int_chain(n=150, seed=12)
        with obs.observed() as (_tracer, registry):
            r1 = solve(
                sys_,
                options=EngineOptions(backend="shm", workers=WORKERS),
            )
            solve(
                sys_,
                plan=r1.plan,
                options=EngineOptions(backend="shm", workers=WORKERS),
            )
        snap = registry.snapshot()
        reuses = sum(
            e["value"] for e in snap if e["name"] == "engine.shm.plan.reuses"
        )
        assert reuses >= 1
