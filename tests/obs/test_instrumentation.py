"""End-to-end checks that the instrumented hot paths report exactly
what the solvers' own stats records observe -- the round-count claims
are the paper's claims, so the trace must agree with SolveStats."""

import math

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CONCAT,
    FLOAT_MUL,
    GIRSystem,
    OrdinaryIRSystem,
    modular_mul,
)
from repro.core.cap import count_all_paths
from repro.core.depgraph import build_dependence_graph
from repro.core.moebius import AffineRecurrence
from repro.resilience import SolvePolicy
from .._legacy_solvers import solve_affine_numpy, solve_gir, solve_moebius, solve_ordinary, solve_ordinary_numpy


def fig3_system(n):
    """The Fig-3 workload shape: a maximal multiplication chain."""
    return OrdinaryIRSystem.build(
        np.full(n + 1, 1.0000001), np.arange(1, n + 1), np.arange(n), FLOAT_MUL
    )


def solve_numpy_rounds(system, **kwargs):
    """The numpy backend held to pointer-jumping rounds: a round budget
    always runs rounds (the default would scan this chain in one
    level)."""
    return solve_ordinary_numpy(
        system, policy=SolvePolicy(max_rounds=64), **kwargs
    )


class TestOrdinarySolvers:
    @pytest.mark.parametrize("solver,engine,expected", [
        (solve_ordinary, "python", math.ceil(math.log2(257))),
        (solve_numpy_rounds, "numpy", math.ceil(math.log2(257))),
        (solve_ordinary_numpy, "numpy", 1),  # chain scan: one level
    ], ids=[
        "solve_ordinary-python",
        "solve_ordinary_numpy-numpy",
        "solve_ordinary_numpy-chains",
    ])
    def test_round_spans_agree_with_stats(self, solver, engine, expected):
        system = fig3_system(257)
        with obs.observed() as (tracer, registry):
            _out, stats = solver(system, collect_stats=True)
        rounds = tracer.find("solver.round")
        assert len(rounds) == stats.rounds == expected
        assert [s.attributes["active"] for s in rounds] == stats.active_per_round
        assert registry.value("solver.rounds", engine=engine) == stats.rounds
        assert registry.value("solver.init_ops", engine=engine) == stats.init_ops
        hist = registry.get("solver.active_cells", engine=engine)
        assert hist.sum == sum(stats.active_per_round)

    def test_root_span_attributes(self):
        system = fig3_system(64)
        with obs.observed() as (tracer, _):
            _out, stats = solve_ordinary_numpy(system, collect_stats=True)
        (root,) = tracer.find("solver.ordinary")
        assert root.attributes["n"] == 64
        assert root.attributes["rounds"] == stats.rounds
        assert len(root.children) == stats.rounds

    def test_results_identical_with_and_without_tracing(self):
        system = fig3_system(100)
        plain, plain_stats = solve_ordinary_numpy(system, collect_stats=True)
        with obs.observed():
            traced, traced_stats = solve_ordinary_numpy(
                system, collect_stats=True
            )
        assert plain == traced
        assert plain_stats.active_per_round == traced_stats.active_per_round

    def test_no_spans_recorded_when_disabled(self):
        assert not obs.is_enabled()
        solve_ordinary_numpy(fig3_system(32))
        assert not obs.is_enabled()


class TestCAP:
    def fib_graph(self, n):
        system = GIRSystem.build(
            [2, 3] + [1] * n,
            [i + 2 for i in range(n)],
            [i + 1 for i in range(n)],
            list(range(n)),
            modular_mul(97),
        )
        return build_dependence_graph(system)

    def test_iteration_spans_agree_with_result(self):
        graph = self.fib_graph(20)
        with obs.observed() as (tracer, registry):
            result = count_all_paths(graph)
        iterations = tracer.find("cap.iteration")
        assert len(iterations) == result.iterations
        assert [
            s.attributes["compositions"] for s in iterations
        ] == result.work_per_iteration
        assert registry.value("cap.iterations") == result.iterations
        assert registry.value("cap.edge_work") == result.edge_work
        assert registry.get("cap.edges_live").updates == result.iterations

    def test_root_attributes(self):
        graph = self.fib_graph(12)
        with obs.observed() as (tracer, _):
            result = count_all_paths(graph)
        (root,) = tracer.find("cap.count_all_paths")
        assert root.attributes["iterations"] == result.iterations
        assert root.attributes["edge_work"] == result.edge_work


class TestGIR:
    def test_phase_spans(self):
        n = 10
        system = GIRSystem.build(
            [2, 3] + [1] * n,
            [i + 2 for i in range(n)],
            [i + 1 for i in range(n)],
            list(range(n)),
            modular_mul(97),
        )
        with obs.observed() as (tracer, registry):
            _out, stats = solve_gir(system, collect_stats=True)
        (root,) = tracer.find("solver.gir")
        child_names = [c.name for c in root.children]
        assert child_names == ["gir.build_graph", "gir.cap", "gir.evaluate"]
        assert root.attributes["cap_iterations"] == stats.cap_iterations
        (evaluate,) = tracer.find("gir.evaluate")
        assert evaluate.attributes["power_ops"] == stats.power_ops
        assert evaluate.attributes["combine_ops"] == stats.combine_ops
        assert registry.value("gir.power_ops") == stats.power_ops
        # the CAP spans nest inside gir.cap
        (cap_root,) = tracer.find("cap.count_all_paths")
        assert cap_root.parent_id == tracer.find("gir.cap")[0].span_id

    def test_normalize_phase_when_renaming(self):
        op = modular_mul(97)
        system = GIRSystem.build([1, 2], [0, 0], [1, 1], [1, 0], op)
        with obs.observed() as (tracer, _):
            solve_gir(system)
        assert len(tracer.find("gir.normalize")) == 1


class TestMoebius:
    def recurrence(self, n):
        return AffineRecurrence.build(
            [1.0] * (n + 1),
            list(range(1, n + 1)),
            list(range(n)),
            [1.5] * n,
            [0.5] * n,
        )

    def test_object_engine_phases(self):
        rec = self.recurrence(8)
        with obs.observed() as (tracer, _):
            solve_moebius(rec, engine="numpy")
        (root,) = tracer.find("solver.moebius")
        assert [c.name for c in root.children] == [
            "moebius.coefficients",
            "moebius.ir_solve",
            "moebius.evaluate",
        ]
        # the inner OrdinaryIR solve is traced under ir_solve
        (inner,) = tracer.find("solver.ordinary")
        assert inner.parent_id == tracer.find("moebius.ir_solve")[0].span_id

    def test_affine_fast_path_rounds(self):
        rec = self.recurrence(33)
        with obs.observed() as (tracer, registry):
            _out, stats = solve_affine_numpy(rec, collect_stats=True)
        rounds = tracer.find("solver.round")
        assert len(rounds) == stats.rounds == math.ceil(math.log2(33))
        assert registry.value("solver.rounds", engine="affine") == stats.rounds
        (root,) = tracer.find("solver.moebius")
        assert root.attributes["engine"] == "affine"


class TestPRAM:
    def test_superstep_spans_and_registry(self):
        from repro.pram import PRAM

        machine = PRAM(processors=2)
        machine.memory.alloc("A", [0] * 6)

        def write(i):
            return lambda ctx: ctx.write("A", i, i * i)

        with obs.observed() as (tracer, registry):
            machine.superstep([(i, write(i)) for i in range(6)])
            machine.superstep([(i, write(i)) for i in range(3)])
        spans = tracer.find("pram.superstep")
        assert len(spans) == machine.metrics.supersteps == 2
        assert [s.attributes["virtual"] for s in spans] == [6, 3]
        assert [s.attributes["bursts"] for s in spans] == [
            step.bursts for step in machine.metrics.steps
        ]
        assert (
            registry.value("pram.superstep.work", processors=2)
            == machine.metrics.work
        )
        assert (
            registry.value("pram.superstep.time", processors=2)
            == machine.metrics.time
        )
        assert registry.value("pram.supersteps", processors=2) == 2

    def test_publish_run_metrics_replays(self):
        from repro.obs import MetricsRegistry
        from repro.pram.metrics import RunMetrics, publish_run_metrics

        metrics = RunMetrics(processors=4)
        metrics.add_step(virtual=8, bursts=2, time=10, work=16)
        metrics.add_step(virtual=4, bursts=1, time=5, work=4)
        registry = MetricsRegistry()
        publish_run_metrics(metrics, registry)
        assert registry.value("pram.superstep.work", processors=4) == 20
        assert registry.value("pram.supersteps", processors=4) == 2


class TestLoops:
    def test_parallelize_span_records_method(self):
        from repro.loops.ast import AffineIndex, Assign, BinOp, Loop, Ref
        from repro.loops.transform import parallelize

        loop = Loop(
            6,
            Assign(
                Ref("A", AffineIndex(1, 1)),
                BinOp("+", Ref("A", AffineIndex(1, 0)), Ref("A", AffineIndex(1, 1))),
            ),
        )
        env = {"A": [float(x) for x in range(7)]}
        plain = parallelize(loop, env)
        with obs.observed() as (tracer, registry):
            traced = parallelize(loop, env)
        assert traced.env == plain.env
        (span,) = tracer.find("loops.parallelize")
        assert span.attributes["method"] == traced.method
        assert (
            registry.value("loops.parallelized", method=traced.method) == 1
        )
