"""Differential suite: the array-native GIR plan pipeline.

CAP hands the planner its converged int64 CSR ``L`` straight (no dict
rows); doubling on dict rows (without SciPy), the sequential DP and
the overflow promotion still produce exact Python-int rows.  Whatever the route, the
:class:`~repro.engine.plan.PowerTable` -- row pointers, cells and the
exponents read as ints -- must be the same table, and batched
evaluation (exponent-1 entries gathered, only exponents > 1 powered)
must be bit-identical to the per-row evaluator and the sequential loop.
Runs with and without SciPy (``REPRO_NO_SCIPY=1``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GIRSystem, run_gir
from repro.core import cap as cap_module
from repro.core.depgraph import DependenceGraph, build_dependence_graph
from repro.core.equations import normalize_non_distinct
from repro.core.operators import modular_add, modular_mul
from repro.core.workloads import random_gir_system
from repro.engine import EngineOptions, solve
from repro.engine.driver import Job
from repro.engine.exec_gir import TraceEvaluator
from repro.engine.plan import PowerTable
from repro.engine.planner import PlanCache
from repro.errors import CyclicDependenceError

from .._legacy_solvers import table_plan

OPS = {"add": modular_add(97), "mul": modular_mul(101)}


@st.composite
def gir_maps(draw):
    """Random GIR systems: distinct or repeated ``g``, varied extra
    cells, either modular operator."""
    n = draw(st.integers(min_value=0, max_value=60))
    return random_gir_system(
        n,
        extra_cells=draw(st.integers(min_value=1, max_value=80)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        distinct_g=draw(st.booleans()),
        op=OPS[draw(st.sampled_from(sorted(OPS)))],
    )


def _graph(system):
    work = system
    if not system.g_is_distinct():
        work = normalize_non_distinct(system).system
    return build_dependence_graph(work)


def _table(graph, method):
    cap = cap_module.count_all_paths(graph, method=method)
    return PowerTable.from_cap(cap, graph.n)


def _same(a, b):
    assert np.array_equal(a.row_ptr, b.row_ptr)
    assert np.array_equal(a.cells, b.cells)
    assert a.exponent_list() == b.exponent_list()
    assert all(type(x) is int for x in a.exponent_list())


def _eval(system, plan, mode):
    """Evaluate a table plan: ``batched`` where the numpy backend's
    typed setup applies, ``rows`` on the python backend."""
    backend = "python" if mode == "rows" else "numpy"
    return solve(
        system, plan=plan, cache=PlanCache(), options=EngineOptions(backend=backend)
    ).values


class TestTables:
    @given(gir_maps())
    @settings(max_examples=60, deadline=None)
    def test_every_cap_method_builds_one_table(self, system):
        graph = _graph(system)
        want = _table(graph, "dp")
        for method in ("matrix", "auto"):
            _same(_table(graph, method), want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cap_module, "_scipy_sparse", lambda: None)
            _same(_table(graph, "matrix"), want)  # dict-row doubling

    @given(gir_maps())
    @settings(max_examples=30, deadline=None)
    def test_planner_routes_to_dp_below_the_cutoff(self, system):
        level = table_plan(system)  # the level pass's table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cap_module, "_LEVEL_MAX_DEPTH", 0)
            dp = solve(system, cache=PlanCache()).plan
        if level.dispatch is not None:
            return
        _same(dp.table, level.table)
        assert dp.cap_iterations == level.cap_iterations
        assert dp.table.power_entry_count == level.table.power_entry_count
        for period in (None, 97, 100):
            a, b = dp.table.powered(period), level.table.powered(period)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("method", ["matrix", "rows", "dp"])
    def test_overflow_promotion_keeps_exact_ints(self, method, monkeypatch):
        # Fibonacci path counts leave int64 near n = 90: the CSR state
        # promotes to exact dict rows, and the table keeps ints.
        system = fibonacci(120, OPS["add"])
        graph = build_dependence_graph(system)
        if method == "rows":  # doubling on dict rows from the start
            monkeypatch.setattr(cap_module, "_scipy_sparse", lambda: None)
            method = "matrix"
        table = _table(graph, method)
        _same(table, _table(graph, "dp"))
        assert max(table.exponent_list()).bit_length() > 63
        assert table.exponents.dtype == object
        assert table.powered(None) is None


def fibonacci(n, op):
    return GIRSystem.build(
        list(range(1, n + 3)),
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        list(range(n)),
        op,
    )


class TestEvaluation:
    @given(gir_maps())
    @settings(max_examples=60, deadline=None)
    def test_batched_rows_and_loop_agree_bit_for_bit(self, system):
        oracle = run_gir(system)
        plan = table_plan(system)
        for mode in ("batched", "rows"):
            got = _eval(system, plan, mode)
            assert got == oracle, mode
            assert [type(v) for v in got] == [type(v) for v in oracle], mode

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_fibonacci_reduced_exponents(self, name):
        system = fibonacci(300, OPS[name])
        plan = solve(system, cache=PlanCache()).plan
        assert plan.table.powered(None) is None  # exact big ints
        assert _eval(system, plan, "batched") == run_gir(system)

    @given(gir_maps(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_out_of_domain_values_fall_back_to_rows(self, system, seed):
        if system.m == 0:
            return
        modulus = 97 if system.op is OPS["add"] else 101
        rng = np.random.default_rng(seed)
        initial = list(system.initial)
        initial[int(rng.integers(system.m))] = modulus + int(rng.integers(50))
        bad = GIRSystem.build(initial, system.g, system.f, system.h, system.op)
        plan = table_plan(bad)
        if plan.dispatch is None:
            _values, _typed, mode = TraceEvaluator(
                Job(sched=plan, source=bad)
            ).evaluate()
            assert mode == "rows"
        assert _eval(bad, plan, "batched") == run_gir(bad)


class TestAcyclicity:
    @given(gir_maps())
    @settings(max_examples=40, deadline=None)
    def test_built_graphs_carry_the_certificate(self, system):
        graph = _graph(system)
        assert graph.index_ordered()
        assert graph.find_cycle() == []

    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_hand_built_graphs_raise_a_real_cycle(self, n, data):
        m = 3
        node = st.integers(min_value=0, max_value=n + m - 1)
        tf = np.array([data.draw(node) for _ in range(n)])
        th = np.array([data.draw(node) for _ in range(n)])
        graph = DependenceGraph(n=n, m=m, target_f=tf, target_h=th)
        cycle = graph.find_cycle()
        if not cycle:
            assert _is_dag(graph)
            cap_module.count_all_paths(graph)
            return
        assert not graph.index_ordered()
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert v in (int(tf[u]), int(th[u]))
        with pytest.raises(CyclicDependenceError) as info:
            cap_module.count_all_paths(graph)
        assert info.value.cycle == cycle
        assert info.value.findings[0].code == "PRE003"


def _is_dag(graph):
    """Kahn's algorithm over the final nodes."""
    n = graph.n
    succ = [
        {int(t) for t in (graph.target_f[i], graph.target_h[i]) if t < n}
        for i in range(n)
    ]
    indeg = [0] * n
    for targets in succ:
        for t in targets:
            indeg[t] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for t in succ[u]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return seen == n
