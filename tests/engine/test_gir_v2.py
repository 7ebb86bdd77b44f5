"""GIRPlan v2 end-to-end: serialization, batched evaluation, CAP
overflow.

The array-backed CAP pipeline's integration surface: the flat CSR
power table must round-trip through JSON, the batched and per-row
evaluators must agree with the sequential oracle bit-for-bit,
``solve_batch`` must sweep value vectors through one plan, and an
unbounded CAP whose path counts outgrow int64 must run on the
sequential DP rather than doubling big-int dict rows.
"""

import json

import pytest

from repro.core import GIRSystem, run_gir
from repro.core import cap as cap_module
from repro.core.cap import count_all_paths, count_paths_dp
from repro.core.depgraph import build_dependence_graph
from repro.core.operators import modular_add, modular_mul
from repro.engine import (
    EngineOptions,
    plan_from_dict,
    plan_to_dict,
    solve,
    solve_batch,
)
from repro.engine.plan import PowerTable
from repro.engine.planner import PlanCache

from .._legacy_solvers import table_plan

MOD = 10**9 + 7
#: A composite modulus: no power period, so CAP keeps exact counts.
COMPOSITE_MUL = modular_mul(MOD + 1)


def fibonacci_powers(n, op=None):
    """x[i+2] = x[i+1] op x[i]: the paper's Fig. 5 workload."""
    return GIRSystem.build(
        list(range(1, n + 3)),
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        list(range(n)),
        op or modular_add(MOD),
    )


def leafy(n, k=4):
    """Traces keep up to ``k`` distinct leaf cells (multi-entry rows)."""
    return GIRSystem.build(
        list(range(1, n + k + 1)),
        [i + k for i in range(n)],
        [i + k - 1 for i in range(n)],
        [i % k for i in range(n)],
        modular_add(MOD),
    )


def cap_plan(system):
    # the power table (a default solve of a shallow graph plans levels)
    plan = table_plan(system)
    assert plan.dispatch is None
    return plan


class TestSerialization:
    def test_power_table_payload_round_trip(self):
        plan = cap_plan(leafy(60))
        payload = json.loads(json.dumps(plan.table.to_payload()))
        restored = PowerTable.from_payload(payload)
        assert (restored.row_ptr == plan.table.row_ptr).all()
        assert (restored.cells == plan.table.cells).all()
        assert restored.exponent_list() == plan.table.exponent_list()

    def test_v2_plan_json_round_trip_replays(self):
        system = leafy(80)
        plan = cap_plan(system)
        restored = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert restored.fingerprint == plan.fingerprint
        assert restored.table.nnz == plan.table.nnz
        replay = solve(system, plan=restored, cache=PlanCache())
        assert replay.values == run_gir(system)

    def test_v1_payload_is_refused(self):
        # v1 per-row "tables" are no longer read: the plan loads with
        # no CAP artifacts and the checker refuses it (GIR005).
        from repro.check import verify_plan

        payload = plan_to_dict(cap_plan(leafy(40)))
        payload["tables"] = [[[0, 1]]]
        del payload["table"]
        plan = plan_from_dict(json.loads(json.dumps(payload)))
        assert plan.table is None
        assert [f.code for f in verify_plan(plan).errors] == ["GIR005"]

    def test_exact_bigint_exponents_survive_json(self):
        # Fibonacci exponents at n=120 exceed int64; JSON carries exact
        # Python ints, so the round trip must not truncate.  Only an
        # operator without a power period keeps exact counts.
        plan = cap_plan(fibonacci_powers(120, COMPOSITE_MUL))
        restored = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        top = max(restored.table.exponents)
        assert top == max(plan.table.exponents)
        assert top.bit_length() > 63


class TestEvaluationModes:
    @pytest.mark.parametrize("system_fn", (fibonacci_powers, leafy))
    def test_rows_and_batched_match_oracle(self, system_fn):
        system = system_fn(3000)
        oracle = run_gir(system)
        plan = cap_plan(system)
        for backend in ("python", "numpy"):  # rows, batched
            res = solve(
                system,
                plan=plan,
                cache=PlanCache(),
                options=EngineOptions(backend=backend),
            )
            assert res.values == oracle, backend

    def test_modular_mul_exact(self):
        system = fibonacci_powers(400, modular_mul(1009))
        oracle = run_gir(system)
        for backend in ("python", "numpy"):  # rows, batched
            res = solve(
                system,
                cache=PlanCache(),
                options=EngineOptions(backend=backend),
            )
            assert res.strategy == "traces"
            assert res.values == oracle, backend

    def test_python_backend_matches(self):
        system = leafy(500)
        res = solve(
            system,
            cache=PlanCache(),
            options=EngineOptions(backend="python"),
        )
        assert res.values == run_gir(system)

    def test_unknown_eval_mode_rejected(self):
        # gir_eval is no option: every backend option key is refused
        with pytest.raises(ValueError, match="unknown backend option key.*gir_eval"):
            solve(
                leafy(10),
                cache=PlanCache(),
                options=EngineOptions(
                    backend="numpy",
                    backend_options={"gir_eval": "warp"},
                ),
            )


class TestSolveBatch:
    def test_batch_sweeps_one_plan(self):
        system = leafy(300)
        k = 5
        batches = [
            [(v * 7 + j) % MOD or 1 for v in range(len(system.initial))]
            for j in range(k)
        ]
        rows = solve_batch(system, batches, cache=PlanCache())
        import dataclasses

        for j in range(k):
            expect = run_gir(dataclasses.replace(system, initial=batches[j]))
            assert rows[j] == expect


class TestOverflowFinishesOnDP:
    """Fibonacci path counts leave int64 near depth 90: an unbounded
    run is deeper than the level pass serves and runs on the DP; a
    bounded matrix run keeps doubling, promoting to exact ints."""

    def test_unbounded_overflow_never_doubles_dict_rows(self, monkeypatch):
        def no_doubling(*_args):
            raise AssertionError("dict doubling ran")

        monkeypatch.setattr(cap_module, "_doubling_step", no_doubling)
        system = fibonacci_powers(1000, COMPOSITE_MUL)
        res = solve(system, cache=PlanCache())
        assert res.values == run_gir(system)
        assert max(res.plan.table.exponents).bit_length() > 63

    def test_bounded_overflow_keeps_doubling(self, monkeypatch):
        calls = []
        doubling = cap_module._doubling_step

        def counted(*args):
            calls.append(1)
            return doubling(*args)

        monkeypatch.setattr(cap_module, "_doubling_step", counted)
        graph = build_dependence_graph(fibonacci_powers(200))
        cap = count_all_paths(graph, max_iterations=64, method="matrix")
        assert calls
        assert cap.powers == count_paths_dp(graph)
