"""The schedule verifier: 100% acceptance of genuine planner output,
rejection of every adversarial mutation.

Acceptance runs the whole family matrix (ordinary, Moebius, GIR with
both dispatch and CAP artifacts), including serialized round trips --
the ``repro check`` file path.  The mutation half is the verifier's own soundness
test: a verifier that accepts a corrupted schedule would sign off on
a silent data race.
"""

import pytest

from repro.check import (
    CHAIN_MUTATION_KINDS,
    MUTATION_KINDS,
    mutate_plan,
    mutation_campaign,
    verify_or_raise,
    verify_plan,
)
from repro.core import ADD, OrdinaryIRSystem
from repro.core.moebius import AffineRecurrence
from repro.core.workloads import (
    chain_system,
    double_chain_gir_system,
    fibonacci_gir_system,
    forest_system,
    random_ordinary_system,
    scatter_system,
)
from repro.engine import EngineOptions, solve
from repro.engine.plan import plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache
from repro.engine.problem import Problem
from repro.errors import PlanVerificationError, exit_code_for


def plan_for(system):
    result = solve(
        system,
        cache=PlanCache(),
        options=EngineOptions(backend="numpy"),
    )
    assert result.plan is not None
    return Problem.from_system(system), result.plan


SYSTEMS = {
    "chain": lambda: chain_system(300),
    "forest": lambda: forest_system([64, 5, 5, 5, 1, 0]),
    "random": lambda: random_ordinary_system(200, seed=3),
    "fibonacci-gir": lambda: fibonacci_gir_system(24),
    "double-chain-gir": lambda: double_chain_gir_system(16),
    "scatter-gir": lambda: scatter_system(120, 12, seed=5),
}


class TestAcceptance:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_genuine_plan_accepted(self, name):
        system = SYSTEMS[name]()
        problem, plan = plan_for(system)
        report = verify_plan(
            plan,
            problem,
            system=system if problem.family == "gir" else None,
        )
        assert report.ok, [f.describe() for f in report.errors]
        assert report.checks_run > 0

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_serialized_round_trip_accepted(self, name):
        system = SYSTEMS[name]()
        problem, plan = plan_for(system)
        rehydrated = plan_from_dict(plan_to_dict(plan))
        report = verify_plan(rehydrated, problem)
        assert report.ok, [f.describe() for f in report.errors]

    def test_moebius_plan_accepted(self):
        n = 150
        rec = AffineRecurrence.build(
            initial=[1.0] + [0.0] * n,
            g=list(range(1, n + 1)),
            f=list(range(n)),
            a=[1.01] * n,
            b=[0.5] * n,
        )
        problem, plan = plan_for(rec)
        assert plan.family == "moebius"
        report = verify_plan(plan, problem)
        assert report.ok, [f.describe() for f in report.errors]

    def test_verify_or_raise_returns_report_when_clean(self):
        problem, plan = plan_for(chain_system(50))
        report = verify_or_raise(plan, problem)
        assert report.ok

    def test_gir_cap_oracle_runs_when_system_given(self):
        system = double_chain_gir_system(12)
        problem, plan = plan_for(system)
        report = verify_plan(plan, problem, system=system)
        assert report.ok
        # The deep oracle leaves its IR000 confirmation behind.
        assert "IR000" in report.codes()


class TestFingerprint:
    def test_plan_for_other_problem_rejected(self):
        _, plan = plan_for(chain_system(40))
        other = Problem.from_system(chain_system(41))
        report = verify_plan(plan, other)
        assert not report.ok
        assert report.errors[0].code == "SCH008"


class TestMutationRejection:
    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_every_kind_rejected_on_chain(self, kind):
        problem, plan = plan_for(chain_system(120))
        mut = mutate_plan(plan, kind, seed=0)
        assert mut is not None, f"{kind} inapplicable to a 120-chain plan"
        report = verify_plan(mut.plan, problem)
        assert not report.ok, f"{kind} survived: {mut.description}"

    def test_full_campaign_rejected_across_shapes(self):
        total = rejected = 0
        for name in ("chain", "forest", "random"):
            problem, plan = plan_for(SYSTEMS[name]())
            for mut in mutation_campaign(plan, seeds=range(4)):
                total += 1
                if not verify_plan(mut.plan, problem).ok:
                    rejected += 1
        assert total > 0
        assert rejected == total, f"{total - rejected}/{total} mutants survived"

    @pytest.mark.parametrize("kind", CHAIN_MUTATION_KINDS)
    def test_chain_layout_mutations_rejected(self, kind):
        # a caterpillar: a 200-spine plus legs, so two chain levels
        f = list(range(-1, 199)) + [2 * k for k in range(100)]
        f[0] = 300
        problem, plan = plan_for(
            OrdinaryIRSystem.build([1] * 301, list(range(300)), f, ADD)
        )
        assert plan.strategy == "chains" and plan.chains.levels == 2
        expected = {
            "chain_swap_order": {"CHN003"},
            "chain_shift_offset": {"CHN002", "CHN003"},
            "chain_relink_seed": {"CHN002", "CHN004"},
        }[kind]
        for seed in range(6):
            mut = mutate_plan(plan, kind, seed=seed)
            assert mut is not None, f"{kind} inapplicable"
            report = verify_plan(mut.plan, problem)
            assert not report.ok, f"{kind} survived: {mut.description}"
            assert report.errors[0].code in expected
            assert not mut.plan.has_steps  # proved on the layout alone

    def test_chain_plan_campaign_includes_layout_kinds(self):
        _, plan = plan_for(chain_system(300))
        kinds = {mut.kind for mut in mutation_campaign(plan, seeds=range(2))}
        assert "chain_swap_order" in kinds and "swap_rounds" in kinds
        assert not plan.has_steps  # mutating never builds the input's rounds


class TestRaiseContract:
    def test_error_carries_report_findings_and_exit_code(self):
        problem, plan = plan_for(chain_system(80))
        mut = mutate_plan(plan, "perturb_gather", seed=2)
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_or_raise(mut.plan, problem)
        err = exc_info.value
        assert exit_code_for(err) == 8
        assert err.report is not None and not err.report.ok
        assert err.findings and err.findings[0].code.startswith("SCH")
        doc = err.diagnosis()
        assert doc["category"] == "check"
        assert doc["report"]["ok"] is False
        assert doc["findings"][0]["code"] == err.findings[0].code
