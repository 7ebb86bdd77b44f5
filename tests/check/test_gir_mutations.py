"""GIRPlan-v2 mutation classes: the CAP verifier's soundness test.

The acceptance half proves 100% of genuine CAP plans pass the
artifact proofs (CSR integrity + the tiered oracle); the rejection
half requires every mutation class to be caught at BOTH oracle
tiers -- the exact full oracle below ``GIR_ORACLE_MAX_N`` and the
modular-totals + sampled-row tier above it.

``gir_leaf_drift`` is the load-bearing case: it deletes a factor and
repairs every downstream row pointer, so the table is structurally
perfect and only the dependence-graph oracle can reject it.
"""

import pytest

from repro.check import (
    GIR_MUTATION_KINDS,
    GIR_ORACLE_MAX_N,
    mutate_plan,
    mutation_campaign,
    verify_plan,
)
from repro.core import GIRSystem
from repro.core.operators import modular_add, modular_mul

from .._legacy_solvers import table_plan


MOD = 10**9 + 7


def leafy_gir(n, k=4):
    """x[i+k] = x[prev] op x[i % k]: every trace row keeps up to
    ``k`` distinct leaf cells, so row-local mutations always apply."""
    initial = list(range(1, n + k + 1))
    g = [i + k for i in range(n)]
    f = [i + k - 1 for i in range(n)]
    h = [i % k for i in range(n)]
    return GIRSystem.build(initial, g, f, h, modular_add(MOD))


def cap_plan_for(system):
    # the power table (a default solve of a shallow graph plans levels)
    plan = table_plan(system)
    assert plan.dispatch is None, "these tests need a true CAP plan"
    return plan


SMALL_N = 48
LARGE_N = GIR_ORACLE_MAX_N + 600  # forces the totals/sampled tier

# Which error codes may reject each kind, per oracle tier.
EXPECTED_CODES = {
    "gir_perturb_exponent": {"small": {"GIR004"}, "large": {"GIR007", "GIR008"}},
    "gir_truncate_rowptr": {"small": {"GIR006"}, "large": {"GIR006"}},
    "gir_swap_cells": {"small": {"GIR006"}, "large": {"GIR006"}},
    "gir_leaf_drift": {"small": {"GIR004"}, "large": {"GIR007", "GIR008"}},
}


@pytest.fixture(scope="module")
def small():
    system = leafy_gir(SMALL_N)
    return system, cap_plan_for(system)


@pytest.fixture(scope="module")
def large():
    system = leafy_gir(LARGE_N)
    return system, cap_plan_for(system)


class TestAcceptance:
    def test_genuine_small_plan_accepted(self, small):
        system, plan = small
        report = verify_plan(plan, system=system)
        assert report.ok, [f.describe() for f in report.errors]
        # Small n runs the exact full oracle and confirms via IR000.
        assert "IR000" in report.codes()

    def test_genuine_large_plan_accepted(self, large):
        system, plan = large
        report = verify_plan(plan, system=system)
        assert report.ok, [f.describe() for f in report.errors]


class TestMutationRejection:
    @pytest.mark.parametrize("kind", GIR_MUTATION_KINDS)
    def test_rejected_by_exact_oracle(self, small, kind):
        system, plan = small
        mut = mutate_plan(plan, kind, seed=0)
        assert mut is not None, f"{kind} inapplicable"
        report = verify_plan(mut.plan, system=system)
        assert not report.ok, f"{kind} survived: {mut.description}"
        codes = {f.code for f in report.errors}
        assert codes & EXPECTED_CODES[kind]["small"], codes

    @pytest.mark.parametrize("kind", GIR_MUTATION_KINDS)
    def test_rejected_above_oracle_cutoff(self, large, kind):
        system, plan = large
        mut = mutate_plan(plan, kind, seed=0)
        assert mut is not None, f"{kind} inapplicable"
        report = verify_plan(mut.plan, system=system)
        assert not report.ok, f"{kind} survived: {mut.description}"
        codes = {f.code for f in report.errors}
        assert codes & EXPECTED_CODES[kind]["large"], codes

    def test_campaign_defaults_to_gir_kinds_and_all_reject(self, small):
        system, plan = small
        muts = mutation_campaign(plan, seeds=range(4))
        assert {m.kind for m in muts} == set(GIR_MUTATION_KINDS)
        for mut in muts:
            report = verify_plan(mut.plan, system=system)
            assert not report.ok, f"{mut.kind} survived: {mut.description}"

    def test_mutations_never_alias_the_original(self, small):
        system, plan = small
        before = plan.table.row_ptr.copy(), plan.table.cells.copy()
        exps_before = list(plan.table.exponents)
        for kind in GIR_MUTATION_KINDS:
            mut = mutate_plan(plan, kind, seed=1)
            assert mut is not None
            assert mut.plan is not plan
        assert (plan.table.row_ptr == before[0]).all()
        assert (plan.table.cells == before[1]).all()
        assert list(plan.table.exponents) == exps_before
        report = verify_plan(plan, system=system)
        assert report.ok


@pytest.mark.parametrize("kind", ["gir_perturb_exponent", "gir_leaf_drift"])
@pytest.mark.parametrize("n", [SMALL_N, 120])
def test_exponent_mutations_keep_the_storage(kind, n):
    # n = 48 keeps int64 exponents; Fibonacci counts at n = 120 leave
    # int64, so under an operator without a power period the table
    # holds an object array of exact Python ints -- mutations must
    # bump / delete in either dtype without touching the original.
    system = leafy_gir(n) if n == SMALL_N else fibonacci_gir(n, modular_mul(MOD + 1))
    plan = cap_plan_for(system)
    exps_before = plan.table.exponent_list()
    mut = mutate_plan(plan, kind, seed=2)
    assert mut.plan.table.exponents.dtype == plan.table.exponents.dtype
    assert plan.table.exponent_list() == exps_before
    assert not verify_plan(mut.plan, system=system).ok


def fibonacci_gir(n, op=None):
    return GIRSystem.build(
        list(range(1, n + 3)),
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        list(range(n)),
        op or modular_add(MOD),
    )


class TestReducedTables:
    """Fibonacci counts leave int64, so the DP keeps them modulo the
    operator's power period: the table holds residues in ``[1, p]``
    and the oracles compare residues."""

    # Which error codes may reject each kind, per oracle tier; an
    # exponent bumped past the period is a structural (GIR006) fault.
    CODES = {
        "gir_perturb_exponent": {
            "small": {"GIR004", "GIR006"},
            "large": {"GIR006", "GIR007", "GIR008"},
        },
        "gir_truncate_rowptr": {"small": {"GIR006"}, "large": {"GIR006"}},
        "gir_swap_cells": {"small": {"GIR006"}, "large": {"GIR006"}},
        "gir_leaf_drift": {
            "small": {"GIR004"},
            "large": {"GIR007", "GIR008"},
        },
    }

    @pytest.fixture(scope="class", params=["small", "large"])
    def reduced(self, request):
        n = 200 if request.param == "small" else LARGE_N
        system = fibonacci_gir(n)
        plan = cap_plan_for(system)
        assert plan.table.period == MOD
        return request.param, system, plan

    def test_genuine_reduced_plan_accepted(self, reduced):
        _tier, system, plan = reduced
        report = verify_plan(plan, system=system)
        assert report.ok, [f.describe() for f in report.errors]

    @pytest.mark.parametrize("kind", GIR_MUTATION_KINDS)
    def test_every_mutant_rejected(self, reduced, kind):
        tier, system, plan = reduced
        for seed in range(3):
            mut = mutate_plan(plan, kind, seed=seed)
            report = verify_plan(mut.plan, system=system)
            assert not report.ok, f"{kind} survived: {mut.description}"
            assert {f.code for f in report.errors} & self.CODES[kind][tier]

    def test_exponent_above_the_period_rejected(self, reduced):
        _tier, _system, plan = reduced
        mut = mutate_plan(plan, "gir_perturb_exponent", seed=0)
        mut.plan.table.exponents[0] = MOD + 1
        report = verify_plan(mut.plan)  # structure alone catches it
        assert [f.code for f in report.errors] == ["GIR006"]

    def test_period_disagreeing_with_the_operator_rejected(self, reduced):
        _tier, system, plan = reduced
        other = fibonacci_gir(system.n, modular_add(97))
        report = verify_plan(plan, system=other)
        assert [f.code for f in report.errors] == ["GIR009"]


class TestStructuralChecks:
    def test_trailing_entries_detected(self, small):
        # The inverse of gir_truncate_rowptr: extra entries past the
        # final row pointer (a table that does not close).
        _, plan = small
        mut = mutate_plan(plan, "gir_truncate_rowptr", seed=0)
        report = verify_plan(mut.plan)
        assert not report.ok
        assert report.errors[0].code == "GIR006"

    def test_unknown_kind_raises(self, small):
        _, plan = small
        with pytest.raises(ValueError):
            mutate_plan(plan, "gir_unknown", seed=0)
