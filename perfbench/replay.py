"""``replay``: pinned sessions replayed over fresh values.

Closed loop, one thread, in-process.  One default ``Session`` per
problem is built at set-up (the first GIR solve pins its plan); timed
requests then go round-robin over the five problems, each with fresh
seeded values, so after set-up the planner does nothing and the
execute kernels dominate.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.core import ADD, FLOAT_ADD, OrdinaryIRSystem
from repro.core.moebius import AffineRecurrence, run_moebius_sequential
from repro.core.operators import modular_add
from repro.core.sequential import run_gir, run_ordinary
from repro.core.workloads import fibonacci_gir_system, random_ordinary_system
from repro.engine import EngineOptions, Session, exec_gir, exec_moebius, exec_ordinary
from repro.engine.planner import plan_nbytes
from repro.engine.problem import Problem

from common import (
    Corruptor,
    Request,
    Spans,
    WorkloadResult,
    close_match,
    closed_loop,
    counter_total,
    exact_match,
    histogram_sum,
    median,
    own_peak_rss_mb,
    service_rate,
    timed,
)

KINDS = ("chain", "forest", "affine", "gir", "batch")
SIZES = {
    "full": {"chain": 1_000_000, "forest": 400_000, "affine": 200_000,
             "gir": 50_000, "batch": 125_000, "k": 8},
    "tiny": {"chain": 2_000, "forest": 1_500, "affine": 1_000,
             "gir": 300, "batch": 500, "k": 8},
}
#: Program seconds one round of the five requests takes on the recorded
#: host; a run is a fixed number of rounds, ``seconds / ROUND_S``.
ROUND_S = 3.0
#: ``latency_tail_s`` is the highest percentile with this many samples
#: beyond it at the run length: p68 of 45, the middle of the ``chain``
#: cluster (the second slowest kind).  With 10 beyond, p77 fell on the
#: cluster's second-highest sample and moved by a third between seeds.
TAIL_BEYOND = 14
#: Recorded-host median seconds of each kind's sequential loop at full
#: size (20 runs); the yardstick of ``common.host_factor``.  Fixed for
#: good: changing them rescales every reported time.
LOOP_NOMINAL_S = {"chain": 0.2554, "forest": 0.2859, "affine": 0.2037,
                  "gir": 0.0300, "batch": 0.2414}
MODULUS = 10**9 + 7
SETUPS = 5
LAYER_SPAN = {
    "chain": "engine.exec_ordinary.solve",
    "forest": "engine.exec_ordinary.solve",
    "affine": "engine.exec_moebius.solve",
    "gir": "engine.exec_gir.solve",
    "batch": "engine.batch.solve",
}


def build_sources(seed: int, size: Dict[str, int]) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 1])
    n = size["chain"]
    chain = OrdinaryIRSystem.build(
        np.zeros(n + 1, dtype=np.int64), np.arange(1, n + 1), np.arange(n), ADD
    )
    forest = random_ordinary_system(size["forest"], seed=seed, op=FLOAT_ADD)
    n = size["affine"]
    affine = AffineRecurrence.build(
        [0.0] * (n + 1),
        np.arange(1, n + 1),
        np.arange(n),
        rng.uniform(-1.0, 1.0, n).tolist(),
        rng.uniform(-1.0, 1.0, n).tolist(),
    )
    gir = fibonacci_gir_system(size["gir"], op=modular_add(MODULUS))
    n = size["batch"]
    batch = OrdinaryIRSystem.build(
        np.zeros(n + 1, dtype=np.int64), np.arange(1, n + 1), np.arange(n), ADD
    )
    return {"chain": chain, "forest": forest, "affine": affine, "gir": gir,
            "batch": batch}


def set_up(sources: Dict[str, Any]) -> Dict[str, Session]:
    """The program's set-up: one default Session per problem, and the
    first GIR solve, which pins its plan."""
    options = EngineOptions()
    sessions = {kind: Session(src, options=options) for kind, src in sources.items()}
    sessions["gir"].solve()
    return sessions


class Payloads:
    """Fresh seeded values per request and the sequential oracle."""

    def __init__(self, seed: int, sources: Dict[str, Any], k: int):
        self.rng = np.random.default_rng([seed, 2])
        self.sources = sources
        self.k = k

    def values(self, kind: str):
        m = self.sources[kind].m
        if kind == "chain":
            return self.rng.integers(-1000, 1000, m).tolist()
        if kind == "forest":
            return self.rng.random(m).tolist()
        if kind == "affine":
            return self.rng.uniform(-1.0, 1.0, m).tolist()
        if kind == "gir":
            return self.rng.integers(0, MODULUS, m).tolist()
        return self.rng.integers(-1000, 1000, (self.k, m)).tolist()

    def oracle(self, kind: str, values) -> Tuple[Any, float]:
        """The sequential loop on the same inputs: (result, seconds)."""
        src = self.sources[kind]
        if kind == "batch":
            rows = [dataclasses.replace(src, initial=row) for row in values]
            t0 = time.perf_counter()
            want = [run_ordinary(row) for row in rows]
            return want, time.perf_counter() - t0
        system = dataclasses.replace(src, initial=values)
        loop = {"affine": run_moebius_sequential, "gir": run_gir}.get(
            kind, run_ordinary
        )
        return timed(loop, system)


def floor_s(kind: str, values) -> float:
    """The C floor: one ``ufunc.accumulate`` over the same length, for
    the ufunc operators (``ADD`` / ``FLOAT_ADD``)."""
    dtype = np.float64 if kind == "forest" else np.int64
    arr = np.asarray(values, dtype=dtype)
    t0 = time.perf_counter()
    np.add.accumulate(arr, axis=-1)
    return time.perf_counter() - t0


def call(session: Session, kind: str, values) -> List[Any]:
    if kind == "batch":
        return session.solve_batch(values)
    return session.solve(values).values


def check(kind: str, got, want) -> bool:
    if kind in ("forest", "affine"):
        return close_match(got, want)
    if kind == "batch":
        return len(got) == len(want) and all(
            exact_match(g, w) for g, w in zip(got, want)
        )
    return exact_match(got, want)


class Counters:
    """Registry deltas around one program call (traced phase only).

    ``solver.rounds`` / ``solver.active_cells`` carry an ``engine``
    label naming the executor that ran.  The Möbius executors label
    theirs ``affine`` / ``rational``; every other label is an ordinary
    executor, whichever backend the default picks.
    """

    MOEBIUS_ENGINES = ("affine", "rational")

    @classmethod
    def _split(cls, read, registry, name: str) -> Tuple[float, float]:
        """``(ordinary, moebius)`` totals of a solver series."""
        moebius = sum(read(registry, name, engine=e) for e in cls.MOEBIUS_ENGINES)
        return read(registry, name) - moebius, moebius

    @classmethod
    def read(cls, registry) -> Dict[str, float]:
        ord_rounds, aff_rounds = cls._split(counter_total, registry, "solver.rounds")
        ord_active, _ = cls._split(histogram_sum, registry, "solver.active_cells")
        return {
            "ord_rounds": ord_rounds,
            "ord_active": ord_active,
            "aff_rounds": aff_rounds,
            "power_ops": counter_total(registry, "gir.power_ops"),
            "combine_ops": counter_total(registry, "gir.combine_ops"),
            "reroutes": counter_total(registry, "engine.failover.reroutes"),
        }

    @staticmethod
    def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        return {k: after[k] - before[k] for k in before}


def run_round(
    sessions: Dict[str, Session],
    payloads: Payloads,
    spans: Spans,
    corrupt: Callable,
    rid_base: int,
    registry=None,
    layer: Dict[str, List[float]] = None,
) -> List[Request]:
    out = []
    for offset, kind in enumerate(KINDS):
        rid = f"r{rid_base + offset}"
        values = payloads.values(kind)
        session = sessions[kind]
        with spans.span("request", rid):
            before = Counters.read(registry) if registry is not None else None
            with spans.span(LAYER_SPAN[kind], rid):
                t0 = time.perf_counter()
                try:
                    got, error = call(session, kind, values), ""
                except Exception as exc:  # a raised request counts as failed
                    got, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
            if before is not None:
                d = Counters.delta(before, Counters.read(registry))
                for key, value in d.items():
                    layer.setdefault(f"{kind}.{key}", []).append(value)
                layer.setdefault(f"{kind}.solve_s", []).append(latency)
            with spans.span("core.loop", rid):
                want, loop_s = payloads.oracle(kind, values)
            if layer is not None:
                layer.setdefault(f"{kind}.loop_s", []).append(loop_s)
                if kind in ("chain", "forest", "batch"):
                    with spans.span("core.floor", rid):
                        layer.setdefault(f"{kind}.floor_s", []).append(
                            floor_s(kind, values)
                        )
        ok = not error and check(kind, corrupt(got), want)
        out.append(Request(kind, latency, loop_s, ok, error))
    return out


def planned_rounds(seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_S))


def planned_requests(seconds: float) -> int:
    return len(KINDS) * planned_rounds(seconds)


def run(ctx) -> WorkloadResult:
    size = SIZES[ctx.scale]
    sources = build_sources(ctx.seed, size)
    result = WorkloadResult()
    for _ in range(1 if ctx.trace else SETUPS):
        sessions = None
        gc.collect()
        t0 = time.perf_counter()
        sessions = set_up(sources)
        result.setup_s.append(time.perf_counter() - t0)
    result.plan_bytes = float(sum(plan_nbytes(s.plan) for s in sessions.values()))
    payloads = Payloads(ctx.seed, sources, size["k"])
    corrupt = Corruptor(ctx.corrupt_every)
    quiet = Spans(False)

    if not ctx.trace:
        result.requests = closed_loop(
            ctx,
            planned_rounds(ctx.seconds),
            lambda i: run_round(sessions, payloads, quiet, corrupt, i),
        )
        result.peak_rss_mb = own_peak_rss_mb()
        return result

    # Traced run: an untraced half, then a traced half that records
    # spans and reads the program's own counters, then layer probes.
    half = max(1, planned_rounds(ctx.seconds) // 2)
    plain = closed_loop(
        ctx, half, lambda i: run_round(sessions, payloads, quiet, corrupt, i)
    )
    layer: Dict[str, List[float]] = {}
    registry = obs.enable_metrics()
    try:
        traced = closed_loop(
            ctx,
            half,
            lambda i: run_round(
                sessions, payloads, ctx.spans, corrupt, len(plain) + i, registry,
                layer,
            ),
        )
        probes = probe_layers(sources, ctx.spans)
    finally:
        obs.disable()
    result.requests = plain + traced
    result.per_layer = per_layer(layer, probes, sessions, size)
    untraced_rate = service_rate(plain)
    result.per_layer["obs.trace_overhead_frac"] = (
        1.0 - service_rate(traced) / untraced_rate if untraced_rate else 0.0
    )
    return result


def probe_layers(sources, spans: Spans) -> Dict[str, float]:
    """Planner and fingerprint timings, called from outside on the
    replay problems (the program's set-up does the same work inside
    ``Session``).  ``core.cap.*`` come from ``cold``: the Fibonacci
    graph is deep enough that CAP takes its sequential-DP method, which
    keeps no counters."""
    probes: Dict[str, float] = {}
    chain = sources["chain"]
    with spans.span("engine.problem.fingerprint", "probe"):
        probes["fingerprint_s"] = median(
            [timed(lambda: Problem.from_system(chain).fingerprint())[1]
             for _ in range(3)]
        )
    fp = Problem.from_system(chain).fingerprint()
    with spans.span("engine.planner.build", "probe"):
        _, probes["build_ordinary"] = timed(exec_ordinary.build_plan, chain, fp)
    affine = sources["affine"]
    with spans.span("engine.planner.build", "probe"):
        _, probes["build_moebius"] = timed(
            exec_moebius.build_plan, affine, Problem.from_system(affine).fingerprint()
        )
    gir = sources["gir"]
    with spans.span("engine.planner.build", "probe"):
        _, probes["build_gir"] = timed(
            exec_gir.build_plan, gir, Problem.from_system(gir)
        )
    return probes


def per_layer(layer, probes, sessions, size) -> Dict[str, float]:
    def med(key: str) -> float:
        return median(layer.get(key, []))

    def total(key: str) -> float:
        return float(sum(layer.get(key, [])))

    solves = len(layer.get("chain.solve_s", [])) + len(layer.get("forest.solve_s", []))
    elems = (len(layer.get("chain.solve_s", [])) * size["chain"]
             + len(layer.get("forest.solve_s", [])) * size["forest"])
    aff_solves = len(layer.get("affine.solve_s", []))
    gir_solves = len(layer.get("gir.solve_s", []))
    out = {f"core.loop_s.{kind}": med(f"{kind}.loop_s") for kind in KINDS}
    out.update({
        "core.floor_s": med("chain.floor_s"),
        "engine.problem.fingerprint_s": probes["fingerprint_s"],
        "engine.planner.build_s.ordinary": probes["build_ordinary"],
        "engine.planner.build_s.moebius": probes["build_moebius"],
        "engine.planner.build_s.gir": probes["build_gir"],
        "engine.planner.plan_bytes.ordinary": float(sum(
            plan_nbytes(sessions[k].plan) for k in ("chain", "forest", "batch")
        )),
        "engine.planner.plan_bytes.moebius": float(plan_nbytes(sessions["affine"].plan)),
        "engine.planner.plan_bytes.gir": float(plan_nbytes(sessions["gir"].plan)),
        "engine.exec_ordinary.solve_s.chain": med("chain.solve_s"),
        "engine.exec_ordinary.solve_s.forest": med("forest.solve_s"),
        "engine.batch.row_s": med("batch.solve_s") / size["k"],
        "engine.batch.width": float(size["k"]),
        "engine.exec_moebius.solve_s": med("affine.solve_s"),
        "engine.exec_gir.solve_s": med("gir.solve_s"),
        "gir.power_ops": total("gir.power_ops") / gir_solves if gir_solves else 0.0,
        "gir.combine_ops": (
            total("gir.combine_ops") / gir_solves if gir_solves else 0.0
        ),
        "engine.failover.reroutes": sum(
            total(f"{kind}.reroutes") for kind in KINDS
        ),
    })
    # Round counts only where the executor that ran keeps them; a
    # default backend without them leaves these listed as not exercised
    # rather than reading 0, which would look like a gain.
    ord_rounds = total("chain.ord_rounds") + total("forest.ord_rounds")
    if ord_rounds > 0:
        out["engine.exec_ordinary.rounds"] = ord_rounds / solves
        out["engine.exec_ordinary.op_work_per_elem"] = (
            total("chain.ord_active") + total("forest.ord_active")
        ) / elems
    if total("affine.aff_rounds") > 0:
        out["engine.exec_moebius.rounds"] = total("affine.aff_rounds") / aff_solves
    return out
