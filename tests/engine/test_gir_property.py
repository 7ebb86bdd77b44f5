"""Property suite: every GIR execution path equals the sequential oracle.

Hypothesis drives random acyclic GIR systems (modular addition: the
reads-later-writes semantics make any ``f`` / ``h`` maps acyclic by
construction) through the python / numpy backends and both trace
evaluators, with and without SciPy, and requires bit-exact agreement
with ``run_gir`` every time.  This is the refactor's safety net: the
array-backed pipeline may only ever be a faster spelling of the
sequential semantics.
"""

import pytest
from hypothesis import given, settings

from repro.core import run_gir
from repro.core import cap as cap_module
from repro.engine import EngineOptions, solve
from repro.engine.planner import PlanCache

from ..conftest import gir_systems


class TestBackendParity:
    @given(gir_systems(distinct_g=True, max_n=24))
    @settings(max_examples=50, deadline=None)
    def test_python_and_numpy_match_oracle(self, sys_):
        oracle = run_gir(sys_)
        for backend in ("python", "numpy"):
            res = solve(
                sys_,
                cache=PlanCache(),
                options=EngineOptions(backend=backend),
            )
            assert res.values == oracle, backend

    @given(gir_systems(distinct_g=False, max_n=20))
    @settings(max_examples=50, deadline=None)
    def test_renamed_systems_match_oracle(self, sys_):
        # non-distinct g exercises single-assignment renaming
        oracle = run_gir(sys_)
        for backend in ("python", "numpy"):
            res = solve(
                sys_,
                cache=PlanCache(),
                options=EngineOptions(backend=backend),
            )
            assert res.values == oracle, backend

    @given(gir_systems(distinct_g=True, max_n=20))
    @settings(max_examples=25, deadline=None)
    def test_eval_modes_match_oracle(self, sys_):
        oracle = run_gir(sys_)
        for mode in ("rows", "batched"):
            res = solve(
                sys_,
                cache=PlanCache(),
                options=EngineOptions(
                    backend="numpy",
                    backend_options={"gir_eval": mode},
                ),
            )
            assert res.values == oracle, mode


class TestScipyAbsenceParity:
    """The same properties with the sparse backend knocked out: CAP
    falls to dense numpy / pure-Python rows and nothing may change."""

    @given(gir_systems(distinct_g=True, max_n=20))
    @settings(max_examples=30, deadline=None)
    def test_no_scipy_python_numpy_match_oracle(self, sys_):
        oracle = run_gir(sys_)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cap_module, "_scipy_sparse", lambda: None)
            for backend in ("python", "numpy"):
                res = solve(
                    sys_,
                    cache=PlanCache(),
                    options=EngineOptions(backend=backend),
                )
                assert res.values == oracle, backend

    @given(gir_systems(distinct_g=True, max_n=16))
    @settings(max_examples=20, deadline=None)
    def test_no_scipy_pure_python_rows_match_oracle(self, sys_):
        # also past the dense cutoff: the pure-Python sparse rows
        oracle = run_gir(sys_)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cap_module, "_scipy_sparse", lambda: None)
            mp.setattr(cap_module, "_DENSE_MAX_NODES", 2)
            res = solve(
                sys_,
                cache=PlanCache(),
                options=EngineOptions(backend="numpy"),
            )
            assert res.values == oracle
