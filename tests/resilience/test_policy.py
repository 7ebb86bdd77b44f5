"""SolvePolicy enforcement across the solver loops."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import (
    CONCAT,
    GIRSystem,
    OrdinaryIRSystem,
    build_dependence_graph,
    count_all_paths,
    count_paths_dp,
    modular_add,
    run_gir,
    run_ordinary,
)
from repro.core.moebius import AffineRecurrence, run_moebius_sequential
from repro.core.workloads import random_gir_system
from repro.engine import EngineOptions, solve
from repro.errors import IterationBudgetExceeded, PolicyError, SolveTimeoutError
from repro.resilience import SolvePolicy
from .._legacy_solvers import solve_gir, solve_moebius, solve_ordinary, solve_ordinary_numpy


def _chain(n: int) -> OrdinaryIRSystem:
    return OrdinaryIRSystem.build(
        [(f"s{j}",) for j in range(n + 1)],
        list(range(1, n + 1)),
        list(range(n)),
        CONCAT,
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        SolvePolicy(on_exhaustion="explode")
    with pytest.raises(ValueError):
        SolvePolicy(max_rounds=-1)
    with pytest.raises(ValueError):
        SolvePolicy(timeout_s=-0.1)
    assert SolvePolicy().unbounded
    assert not SolvePolicy(max_rounds=3).unbounded


def test_enforcer_round_budget():
    enforcer = SolvePolicy(max_rounds=2, on_exhaustion="partial").enforcer("t")
    assert enforcer.admit()
    assert enforcer.admit()
    assert not enforcer.admit()
    assert enforcer.exhausted == "rounds"
    assert enforcer.is_partial and not enforcer.should_fallback


def test_enforcer_raise_is_default():
    enforcer = SolvePolicy(max_rounds=0).enforcer("t")
    with pytest.raises(IterationBudgetExceeded) as info:
        enforcer.admit()
    assert info.value.budget == 0
    assert isinstance(info.value, PolicyError)


def test_enforcer_timeout():
    enforcer = SolvePolicy(timeout_s=0.0).enforcer("t")
    import time

    time.sleep(0.002)
    with pytest.raises(SolveTimeoutError):
        enforcer.admit()


# -- ordinary ---------------------------------------------------------------


@pytest.mark.parametrize("solver", [solve_ordinary, solve_ordinary_numpy])
def test_ordinary_policy_raise(solver):
    system = _chain(32)  # needs ~5 rounds
    with pytest.raises(IterationBudgetExceeded):
        solver(system, policy=SolvePolicy(max_rounds=1))


@pytest.mark.parametrize("solver", [solve_ordinary, solve_ordinary_numpy])
def test_ordinary_policy_fallback_is_exact(solver):
    system = _chain(32)
    out, _ = solver(
        system, policy=SolvePolicy(max_rounds=1, on_exhaustion="fallback")
    )
    assert out == run_ordinary(system)


@pytest.mark.parametrize("solver", [solve_ordinary, solve_ordinary_numpy])
def test_ordinary_policy_partial_differs(solver):
    system = _chain(32)
    out, _ = solver(
        system, policy=SolvePolicy(max_rounds=1, on_exhaustion="partial")
    )
    assert out != run_ordinary(system)  # genuinely partial


@pytest.mark.parametrize("solver", [solve_ordinary, solve_ordinary_numpy])
def test_ordinary_generous_policy_is_transparent(solver):
    system = _chain(16)
    out, _ = solver(system, policy=SolvePolicy(max_rounds=100))
    assert out == run_ordinary(system)


def test_policy_exhaustion_counted_in_obs():
    system = _chain(32)
    with obs.observed() as (_tracer, registry):
        solve_ordinary_numpy(
            system, policy=SolvePolicy(max_rounds=1, on_exhaustion="fallback")
        )
        entries = [
            e
            for e in registry.snapshot()
            if e["name"] == "resilience.policy.exhausted"
        ]
    assert entries
    assert entries[0]["labels"] == {
        "label": "ordinary.numpy",
        "reason": "rounds",
    }


# -- cap / gir --------------------------------------------------------------


def _fib_gir(n: int) -> GIRSystem:
    return GIRSystem.build(
        [2, 3] + [1] * n,
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        [i for i in range(n)],
        modular_add(97),
    )


def test_cap_policy_fallback_matches_dp():
    graph = build_dependence_graph(_fib_gir(12))
    bounded = count_all_paths(
        graph, policy=SolvePolicy(max_rounds=1, on_exhaustion="fallback")
    )
    assert bounded.powers == count_paths_dp(graph)


def test_cap_policy_raise():
    graph = build_dependence_graph(_fib_gir(12))
    with pytest.raises(IterationBudgetExceeded):
        count_all_paths(graph, policy=SolvePolicy(max_rounds=1))


def test_gir_policy_threads_to_cap():
    system = _fib_gir(10)
    with pytest.raises(IterationBudgetExceeded):
        solve_gir(
            system,
            policy=SolvePolicy(max_rounds=1),
            allow_ordinary_dispatch=False,
        )
    out, _ = solve_gir(
        system,
        policy=SolvePolicy(max_rounds=1, on_exhaustion="fallback"),
        allow_ordinary_dispatch=False,
    )
    assert out == run_gir(system)


# -- moebius ----------------------------------------------------------------


def test_moebius_policy_fallback():
    n = 40
    rec = AffineRecurrence.build(
        initial=[1.0] * (n + 1),
        g=list(range(1, n + 1)),
        f=list(range(n)),
        a=[1.01] * n,
        b=[0.25] * n,
    )
    out, _ = solve_moebius(
        rec, policy=SolvePolicy(max_rounds=1, on_exhaustion="fallback")
    )
    oracle = run_moebius_sequential(rec)
    for got, want in zip(out, oracle):
        assert float(got) == pytest.approx(float(want), rel=1e-9)


def test_moebius_policy_raise():
    n = 40
    rec = AffineRecurrence.build(
        initial=[1.0] * (n + 1),
        g=list(range(1, n + 1)),
        f=list(range(n)),
        a=[1.01] * n,
        b=[0.25] * n,
    )
    with pytest.raises(IterationBudgetExceeded):
        solve_moebius(rec, policy=SolvePolicy(max_rounds=1))


@pytest.mark.parametrize("rounds", range(4))
@pytest.mark.parametrize("seed", range(3))
def test_gir_partial_on_renamed_system_is_a_policy_error(seed, rounds):
    # A partial CAP state keeps open final-node prefixes, which have no
    # projection onto a renamed system's cells: refuse up front.
    system = random_gir_system(2000, extra_cells=500, distinct_g=False, seed=seed)
    policy = SolvePolicy(max_rounds=rounds, on_exhaustion="partial")
    with pytest.raises(PolicyError, match="'raise' or 'fallback'") as info:
        solve(system, options=EngineOptions(policy=policy))
    assert info.value.exit_code == 4


@pytest.mark.parametrize("rounds", (0, 2))
def test_gir_partial_on_distinct_system_returns_partial_values(rounds):
    system = random_gir_system(2000, extra_cells=500, seed=1)
    policy = SolvePolicy(max_rounds=rounds, on_exhaustion="partial")
    values = solve(system, options=EngineOptions(policy=policy)).values
    assert len(values) == len(system.initial)
    assert values != run_gir(system)
