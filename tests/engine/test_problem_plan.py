"""Problem fingerprints, plan construction and plan serialization."""

import numpy as np
import pytest

from repro.core import (
    ADD,
    CONCAT,
    AffineRecurrence,
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
    PlanCache,
    Problem,
    build_round_schedule,
    plan_from_dict,
    plan_to_dict,
    solve,
)


def chain(n, op=CONCAT):
    initial = [(f"s{j}",) for j in range(n + 1)]
    return OrdinaryIRSystem.build(
        initial, list(range(1, n + 1)), list(range(n)), op
    )


class TestProblem:
    def test_from_system_families(self):
        ord_sys = chain(4)
        gir = GIRSystem.build([1, 2, 3], [0], [1], [2], modular_add(97))
        rec = RationalRecurrence.build(
            [1.0, 1.0], [1], [0], [2.0], [0.0], [0.0], [1.0]
        )
        assert Problem.from_system(ord_sys).family == "ordinary"
        assert Problem.from_system(gir).family == "gir"
        assert Problem.from_system(rec).family == "moebius"

    def test_affine_is_moebius_family(self):
        rec = AffineRecurrence.build([0.0, 0.0], [1], [0], [1.0], [2.0])
        assert Problem.from_system(rec).family == "moebius"

    def test_unsupported_source_raises(self):
        with pytest.raises(TypeError):
            Problem.from_system(object())

    def test_fingerprint_is_stable_and_value_independent(self):
        a = chain(6)
        b = OrdinaryIRSystem.build(
            [100 * j for j in range(7)], list(range(1, 7)), list(range(6)), ADD
        )
        # same maps, different values and operator -> same plan key
        fp_a = Problem.from_system(a).fingerprint()
        fp_b = Problem.from_system(b).fingerprint()
        assert fp_a == fp_b
        assert fp_a == Problem.from_system(a).fingerprint()

    def test_fingerprint_separates_structure(self):
        base = Problem.from_system(chain(5))
        other_maps = OrdinaryIRSystem.build(
            [(f"s{j}",) for j in range(6)],
            [5, 4, 3, 2, 1],
            [0, 0, 0, 0, 0],
            CONCAT,
        )
        assert base.fingerprint() != Problem.from_system(other_maps).fingerprint()

    def test_fingerprint_separates_family_and_flags(self):
        g, f = [1, 2], [0, 1]
        ord_sys = OrdinaryIRSystem.build([1, 2, 3], g, f, ADD)
        gir = GIRSystem.build([1, 2, 3], g, f, f, modular_add(97))
        assert (
            Problem.from_system(ord_sys).fingerprint()
            != Problem.from_system(gir).fingerprint()
        )
        assert (
            Problem.from_system(gir).fingerprint()
            != Problem.from_system(gir, allow_rename=False).fingerprint()
        )
        assert (
            Problem.from_system(gir).fingerprint()
            != Problem.from_system(
                gir, allow_ordinary_dispatch=False
            ).fingerprint()
        )


class TestRoundSchedule:
    def test_chain_schedule_halves(self):
        n = 16
        plan = solve(chain(n), options=EngineOptions(backend="numpy")).plan
        assert plan.rounds == 4  # ceil(log2(16))
        sizes = plan.active_per_round
        assert sizes[0] == n - 1  # iteration 0 reads an initial value
        assert sizes == sorted(sizes, reverse=True)

    def test_schedule_replay_matches_pointer_jumping(self):
        # the schedule simulated on indices alone must leave every
        # pointer resolved (no active iterations remain)
        pred = np.array([-1, 0, 1, 2, 3, 4, 5], dtype=np.int64)
        steps = build_round_schedule(pred)
        nxt = pred.copy()
        for active, src in steps:
            nxt[active] = nxt[src]
        assert (nxt < 0).all()
        assert len(steps) == 3  # ceil(log2(7))

    def test_empty_predecessors(self):
        assert build_round_schedule(np.array([], dtype=np.int64)) == []
        assert build_round_schedule(np.array([-1, -1], dtype=np.int64)) == []


class TestPlanSerialization:
    def test_ordinary_round_trip(self):
        sys_ = chain(9)
        result = solve(sys_, options=EngineOptions(backend="numpy"))
        payload = plan_to_dict(result.plan)
        restored = plan_from_dict(payload)
        assert restored.fingerprint == result.plan.fingerprint
        assert restored.rounds == result.plan.rounds
        replay = solve(
            sys_,
            plan=restored,
            options=EngineOptions(backend="python"),
        )
        assert replay.values == run_ordinary(sys_)

    def test_gir_cap_round_trip(self):
        op = modular_add(97)
        sys_ = GIRSystem.build(
            [3, 5, 7, 11, 13], [1, 2, 3], [0, 1, 0], [0, 0, 2], op
        )
        result = solve(sys_)
        assert result.plan.dispatch is None  # true CAP plan
        restored = plan_from_dict(plan_to_dict(result.plan))
        replay = solve(sys_, plan=restored)
        assert replay.values == run_gir(sys_)

    def test_gir_dispatch_round_trip(self):
        # ordinary-shaped GIR (h == g) plans as a nested OrdinaryPlan
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2, 3, 4], [1, 2, 3], [0, 1, 2], [1, 2, 3], op)
        result = solve(sys_)
        assert result.plan.dispatch is not None
        restored = plan_from_dict(plan_to_dict(result.plan))
        replay = solve(sys_, plan=restored)
        assert replay.values == run_gir(sys_)

    def test_moebius_round_trip(self):
        rec = RationalRecurrence.build(
            [1.0] * 6,
            [1, 2, 3, 4, 5],
            [0, 1, 2, 3, 4],
            [1.0, 2.0, 1.0, 0.5, 3.0],
            [1.0] * 5,
            [0.0] * 5,
            [1.0] * 5,
        )
        result = solve(rec)
        restored = plan_from_dict(plan_to_dict(result.plan))
        replay = solve(rec, plan=restored)
        expect = run_moebius_sequential(rec)
        for got, want in zip(replay.values, expect):
            assert got == pytest.approx(want)

    def test_json_compatible(self):
        import json

        payload = plan_to_dict(solve(chain(5)).plan)
        assert plan_from_dict(json.loads(json.dumps(payload))).rounds == 3

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            plan_from_dict({"family": "quantum"})


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        p1 = solve(chain(3)).plan
        p2 = solve(chain(4)).plan
        p3 = solve(chain(5)).plan
        cache.put("a", p1)
        cache.put("b", p2)
        assert cache.get("a") is p1  # refresh 'a'
        cache.put("c", p3)  # evicts 'b', the least recent
        assert cache.get("b") is None
        assert cache.get("a") is p1
        assert cache.get("c") is p3

    def test_hit_miss_accounting(self):
        cache = PlanCache(maxsize=4)
        assert cache.get("missing") is None
        cache.put("k", solve(chain(2)).plan)
        cache.get("k")
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["size"] == 1
        assert info["bytes"] > 0  # resident schedule arrays are counted
        cache.clear()
        assert cache.info() == {
            "size": 0,
            "maxsize": 4,
            "hits": 0,
            "misses": 0,
            "bytes": 0,
        }

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)
