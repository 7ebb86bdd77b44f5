"""int64 ADD / MUL never wrap: results past int64 are the loop's exact ints.

The typed kernels fold int64 arrays, which wrap silently past
``2**63``; the sequential loop folds Python ints, which do not.  The
plan records a value-independent bound on the operands one result can
fold (``OrdinaryPlan.trace_bound``), and a solve whose admitted values
could overflow under that bound runs the exact object-dtype kernel
instead -- on every front door: single solves, stacked batches,
Sessions and the serve tier.
"""

import numpy as np
import pytest

from repro.core import ADD, MUL, OrdinaryIRSystem, run_ordinary
from repro.core.workloads import random_ordinary_system
from repro.engine import EngineOptions, Session, solve, solve_batch
from repro.engine.planner import PlanCache
from repro.resilience import SolvePolicy


def chain(values, op):
    n = len(values) - 1
    return OrdinaryIRSystem.build(values, np.arange(1, n + 1), np.arange(n), op)


#: ``ADD`` over ten cells of 2**62 and ``MUL`` over fifty 3s: both
#: leave int64 (the typed kernels returned -2**63 and a wrapped product)
CASES = {
    "add": (ADD, [2**62] * 10),
    "mul": (MUL, [3] * 50),
}


def _single(system, options=None):
    return solve(system, cache=PlanCache(), options=options).values


def _serve(system):
    from repro.serve import ServeClient

    from ..serve.conftest import running_server

    with running_server(register=[(system, EngineOptions())]) as running:
        fingerprint = next(iter(running.server._by_fingerprint))
        with ServeClient(running.host, running.port) as client:
            return client.solve(fingerprint, values=list(system.initial))["values"]


PATHS = {
    "numpy-chains": lambda s: _single(s),
    "numpy-rounds": lambda s: _single(
        s, EngineOptions(policy=SolvePolicy(max_rounds=64))
    ),
    "python": lambda s: _single(s, EngineOptions(backend="python")),
    "batch": lambda s: solve_batch(
        s, [list(s.initial)] * 3, cache=PlanCache()
    )[2],
    "session": lambda s: Session(s).solve().values,
    "serve": _serve,
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_overflowing_results_are_exact(case, path):
    op, values = CASES[case]
    system = chain(values, op)
    want = run_ordinary(system)
    assert want[-1] > 2**63  # the case really leaves int64
    got = PATHS[path](system)
    assert got == want
    assert all(type(v) is int for v in got)


def test_known_wraps_are_fixed():
    add = _single(chain(CASES["add"][1], ADD))
    mul = _single(chain(CASES["mul"][1], MUL))
    assert add[-1] == 46116860184273879040
    assert mul[-1] == 717897987691852588770249


def test_escalation_runs_rounds_only_when_needed():
    op, values = CASES["add"]
    assert solve(chain(values, op), cache=PlanCache()).strategy == "rounds"
    small = chain([2**40] * 10, op)
    res = solve(small, cache=PlanCache())
    assert res.strategy == "chains"
    assert res.values == run_ordinary(small)


def test_trace_bound_covers_the_longest_trace():
    for seed in range(5):
        maps = random_ordinary_system(300, seed=seed)
        # every result folds at most trace_bound initial values: with
        # all ones, ADD's result is exactly its trace length
        ones = OrdinaryIRSystem.build([1] * maps.m, maps.g, maps.f, ADD)
        plan = solve(ones, cache=PlanCache()).plan
        assert max(run_ordinary(ones)) <= plan.trace_bound


def test_negative_extreme_escalates():
    # -2**63 has no int64 negation: the magnitude bound must not wrap
    system = chain([-(2**63)] + [-1] * 3, ADD)
    assert _single(system) == run_ordinary(system)
