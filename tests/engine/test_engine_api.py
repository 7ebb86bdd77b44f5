"""The engine front door: solve / execute / solve_batch, plan reuse,
cache bookkeeping, obs counters, and the resilience seam."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    ADD,
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
from repro.engine import (
    EngineOptions,
    available_backends,
    execute,
    plan_cache_info,
    solve,
    solve_batch,
)
from repro.errors import PolicyError
from repro.resilience import SolvePolicy


def chain(n, op=CONCAT, initial=None):
    if initial is None:
        initial = [(f"s{j}",) for j in range(n + 1)]
    return OrdinaryIRSystem.build(
        initial, list(range(1, n + 1)), list(range(n)), op
    )


class TestRegistrySurface:
    def test_builtin_backends_present(self):
        assert {"python", "numpy", "pram"} <= set(available_backends())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            solve(chain(3), options=EngineOptions(backend="cuda"))


class TestEquivalenceWithWrappers:
    """The historical per-family signatures and the engine must agree."""

    def test_ordinary(self):
        sys_ = chain(8)
        from .._legacy_solvers import solve_ordinary, solve_ordinary_numpy

        old_py, _ = solve_ordinary(sys_)
        old_np, _ = solve_ordinary_numpy(sys_)
        assert solve(sys_, options=EngineOptions(backend="python")).values == old_py
        assert solve(sys_, options=EngineOptions(backend="numpy")).values == old_np
        assert old_py == run_ordinary(sys_)

    def test_gir(self):
        sys_ = GIRSystem.build(
            [5, 6, 7, 8], [1, 2], [0, 1], [0, 0], modular_add(97)
        )
        from .._legacy_solvers import solve_gir

        old, _ = solve_gir(sys_)
        assert solve(sys_).values == old == run_gir(sys_)

    def test_moebius(self):
        rec = RationalRecurrence.build(
            [1.0, 1.0, 1.0],
            [1, 2],
            [0, 1],
            [2.0, 3.0],
            [1.0, 1.0],
            [0.0, 0.5],
            [1.0, 1.0],
        )
        from .._legacy_solvers import solve_moebius

        old, _ = solve_moebius(rec)
        got = solve(rec).values
        assert got == pytest.approx(old)
        assert got == pytest.approx(run_moebius_sequential(rec))


class TestPlanReuse:
    def test_second_solve_hits_cache(self):
        sys_ = chain(10)
        first = solve(sys_)
        second = solve(sys_)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.plan is first.plan
        assert second.values == first.values == run_ordinary(sys_)

    def test_plans_shared_across_values_and_operators(self):
        # the plan key is index structure only: a solve over different
        # data (and a different monoid) reuses the cached plan
        a = chain(7)
        b = chain(7, op=ADD, initial=list(range(8)))
        first = solve(a)
        second = solve(b)
        assert second.cache_hit
        assert second.values == run_ordinary(b)

    def test_reuse_plan_false_never_caches(self):
        sys_ = chain(6)
        solve(sys_, reuse_plan=False)
        assert plan_cache_info()["size"] == 0
        assert not solve(sys_, reuse_plan=False).cache_hit

    def test_execute_with_held_plan(self):
        sys_ = chain(9)
        plan = solve(sys_, reuse_plan=False).plan
        result = execute(plan, sys_, options=EngineOptions(backend="numpy"))
        assert result.values == run_ordinary(sys_)

    def test_cached_plan_correct_across_backends(self):
        sys_ = chain(12)
        solve(sys_, options=EngineOptions(backend="numpy"))  # populate
        via_python = solve(sys_, options=EngineOptions(backend="python"))
        assert via_python.cache_hit
        assert via_python.values == run_ordinary(sys_)

    def test_pram_backend_bypasses_cache(self):
        sys_ = chain(5)
        result = solve(sys_, options=EngineOptions(backend="pram"))
        assert not result.cache_hit
        assert result.plan is None
        assert plan_cache_info()["size"] == 0

    def test_gir_policy_plans_not_cached(self):
        sys_ = GIRSystem.build(
            [1, 2, 3, 4], [1, 2], [0, 0], [0, 1], modular_add(97)
        )
        policy = SolvePolicy(max_rounds=1, on_exhaustion="fallback")
        solve(sys_, options=EngineOptions(policy=policy))
        assert plan_cache_info()["size"] == 0
        # an unbounded solve afterwards must build (and cache) a full plan
        clean = solve(sys_)
        assert not clean.cache_hit
        assert clean.values == run_gir(sys_)


class TestBatchedExecution:
    def test_typed_batch_matches_per_row(self):
        sys_ = chain(8, op=FLOAT_ADD, initial=[float(j) for j in range(9)])
        rng = np.random.default_rng(3)
        rows = [rng.uniform(-1, 1, size=9).tolist() for _ in range(5)]
        batched = solve_batch(sys_, rows)
        for row, got in zip(rows, batched):
            single = OrdinaryIRSystem.build(
                row, sys_.g.tolist(), sys_.f.tolist(), FLOAT_ADD
            )
            assert got == pytest.approx(run_ordinary(single))

    def test_object_batch_matches_per_row(self):
        sys_ = chain(5)
        rows = [[(f"r{k}_{j}",) for j in range(6)] for k in range(3)]
        batched = solve_batch(sys_, rows)
        for row, got in zip(rows, batched):
            single = OrdinaryIRSystem.build(
                row, sys_.g.tolist(), sys_.f.tolist(), CONCAT
            )
            assert got == run_ordinary(single)

    def test_batch_requires_capable_backend(self):
        with pytest.raises(ValueError, match="batched"):
            solve_batch(
                chain(3),
                [[(f"s{j}",) for j in range(4)]],
                options=EngineOptions(backend="python"),
            )

    def test_batch_reuses_cached_plan(self):
        sys_ = chain(6, op=FLOAT_ADD, initial=[0.0] * 7)
        plan = solve(sys_).plan
        solve_batch(sys_, [[1.0] * 7, [2.0] * 7])
        assert plan_cache_info()["hits"] >= 1
        assert plan_cache_info()["size"] == 1
        assert solve(sys_).plan is plan


class TestObsCounters:
    def test_engine_solves_and_cache_counters(self):
        sys_ = chain(7)
        with obs.observed() as (_tracer, registry):
            solve(sys_)
            solve(sys_)
            assert registry.value(
                "engine.solves", backend="numpy", family="ordinary"
            ) == 2
            assert registry.value(
                "engine.plan.cache.misses", family="ordinary"
            ) == 1
            assert registry.value(
                "engine.plan.cache.hits", family="ordinary"
            ) == 1

    def test_batch_counters(self):
        sys_ = chain(4, op=FLOAT_ADD, initial=[0.0] * 5)
        with obs.observed() as (_tracer, registry):
            solve_batch(sys_, [[1.0] * 5, [2.0] * 5, [3.0] * 5])
            assert registry.value("engine.batch.solves", backend="numpy") == 1
            assert registry.value(
                "engine.solves", backend="numpy", family="ordinary"
            ) == 3

    def test_solver_counters_still_emitted(self):
        # the executors keep the historical solver.* series alive
        sys_ = chain(6)
        with obs.observed() as (_tracer, registry):
            solve(sys_, options=EngineOptions(backend="numpy"))
            assert registry.value("solver.solves", engine="numpy") == 1
            assert registry.value("solver.rounds", engine="numpy") == 3


class TestResilienceSeam:
    def test_policy_raise_through_engine(self):
        sys_ = chain(40)
        with pytest.raises(PolicyError):
            solve(
                sys_,
                options=EngineOptions(policy=SolvePolicy(max_rounds=1)),
            )

    def test_policy_partial_through_engine(self):
        sys_ = chain(40)
        result = solve(
            sys_,
            options=EngineOptions(
                policy=SolvePolicy(max_rounds=1, on_exhaustion="partial"),
            ),
        )
        assert len(result.values) == 41

    def test_checked_through_engine(self):
        for backend in ("python", "numpy", "pram"):
            sys_ = chain(9)
            result = solve(
                sys_,
                options=EngineOptions(backend=backend, checked=True),
            )
            assert result.values == run_ordinary(sys_)

    def test_pram_rejects_policy(self):
        with pytest.raises(ValueError, match="does not support SolvePolicy"):
            solve(
                chain(4),
                options=EngineOptions(
                    backend="pram",
                    policy=SolvePolicy(max_rounds=5),
                ),
            )
