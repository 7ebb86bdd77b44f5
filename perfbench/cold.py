"""``cold``: every request plans from scratch through the plan cache.

Closed loop, one thread, in-process.  Every request is
``solve(system)`` with the default options through the process-wide
plan cache, on index maps generated fresh from the seed that never
repeat, so every cache lookup misses and fingerprinting, plan building
and cache insertion dominate.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.core import FLOAT_ADD
from repro.core.moebius import AffineRecurrence, run_moebius_sequential
from repro.core.sequential import run_gir, run_ordinary
from repro.core.workloads import random_gir_system, random_ordinary_system
from repro.engine import exec_gir, exec_moebius, exec_ordinary, plan_cache_info, solve
from repro.engine.planner import plan_nbytes
from repro.engine.problem import Problem

from common import (
    ROOT,
    SRC,
    Corruptor,
    Request,
    Spans,
    WorkloadResult,
    close_match,
    closed_loop,
    counter_total,
    exact_match,
    median,
    own_peak_rss_mb,
    service_rate,
    timed,
)
import serve_open

KINDS = ("forest", "affine", "gir")
SIZES = {
    "full": {"forest": 200_000, "affine": 100_000, "gir": 50_000},
    "tiny": {"forest": 1_500, "affine": 1_000, "gir": 300},
}
#: Program seconds one round of the three requests takes on the
#: recorded host; a run is a fixed number of rounds, ``seconds / ROUND_S``.
ROUND_S = 1.6
#: ``latency_tail_s`` is the highest percentile with this many samples
#: beyond it at the run length.
TAIL_BEYOND = 10
#: Recorded-host median seconds of each kind's sequential loop at full
#: size (25 runs); the yardstick of ``common.host_factor``.  Fixed for
#: good: changing them rescales every reported time.
LOOP_NOMINAL_S = {"forest": 0.1356, "affine": 0.1681, "gir": 0.0333}
SETUPS = 5
FAMILY = {"forest": "ordinary", "affine": "moebius", "gir": "gir"}
LOOP = {"forest": run_ordinary, "affine": run_moebius_sequential, "gir": run_gir}


def make_request(seed: int, index: int, kind: str, size: Dict[str, int]):
    """A fresh system with never-repeating index maps and values."""
    rng = np.random.default_rng([seed, index, KINDS.index(kind)])
    sub_seed = int(rng.integers(0, 2**62))
    n = size[kind]
    if kind == "forest":
        system = random_ordinary_system(n, seed=sub_seed, op=FLOAT_ADD)
        return dataclasses.replace(system, initial=rng.random(system.m).tolist())
    if kind == "affine":
        m = n + 1
        return AffineRecurrence.build(
            rng.uniform(-1.0, 1.0, m).tolist(),
            rng.permutation(m)[:n],
            rng.integers(0, m, n),
            rng.uniform(-1.0, 1.0, n).tolist(),
            rng.uniform(-1.0, 1.0, n).tolist(),
        )
    return random_gir_system(n, extra_cells=n, seed=sub_seed)


def set_up_s() -> float:
    """Seconds a fresh interpreter spends on import and first solves."""
    out = subprocess.run(
        [sys.executable, "-B", os.path.join(ROOT, "perfbench", "coldstart.py"), SRC],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def build_probe(kind: str, system) -> Tuple[Any, float]:
    """The family's planner called from outside: (plan, seconds)."""
    problem = Problem.from_system(system)
    if kind == "forest":
        return timed(exec_ordinary.build_plan, system, problem.fingerprint())
    if kind == "affine":
        return timed(exec_moebius.build_plan, system, problem.fingerprint())
    return timed(exec_gir.build_plan, system, problem)


def run_round(ctx, size, spans: Spans, corrupt, rid_base: int, registry=None,
              layer: Dict[str, List[float]] = None) -> List[Request]:
    out = []
    for offset, kind in enumerate(KINDS):
        index = rid_base + offset
        rid = f"r{index}"
        system = make_request(ctx.seed, index, kind, size)
        with spans.span("request", rid):
            before = _counters(registry)
            with spans.span("engine.solve", rid):
                t0 = time.perf_counter()
                try:
                    got, error = solve(system).values, ""
                except Exception as exc:  # a raised request counts as failed
                    got, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
            if registry is not None:
                after = _counters(registry)
                for key in before:
                    layer.setdefault(f"{kind}.{key}", []).append(after[key] - before[key])
            with spans.span("core.loop", rid):
                want, loop_s = timed(LOOP[kind], system)
            if registry is not None:
                layer.setdefault(f"{kind}.loop_s", []).append(loop_s)
                _probe(kind, system, spans, rid, layer)
        ok = not error and (
            exact_match(corrupt(got), want)
            if kind == "gir"
            else close_match(corrupt(got), want)
        )
        out.append(Request(kind, latency, loop_s, ok, error))
    return out


def _counters(registry) -> Dict[str, float]:
    if registry is None:
        return {}
    return {
        "cap_iterations": counter_total(registry, "cap.iterations"),
        "cap_edge_work": counter_total(registry, "cap.edge_work"),
        "power_ops": counter_total(registry, "gir.power_ops"),
        "combine_ops": counter_total(registry, "gir.combine_ops"),
        "reroutes": counter_total(registry, "engine.failover.reroutes"),
    }


def _probe(kind: str, system, spans: Spans, rid: str, layer) -> None:
    """Layer timings on the request's own system, outside the timed
    program call."""
    with spans.span("engine.problem.fingerprint", rid):
        _, fp_s = timed(lambda: Problem.from_system(system).fingerprint())
    with spans.span("engine.planner.build", rid):
        plan, build_s = build_probe(kind, system)
    layer.setdefault("fingerprint_s", []).append(fp_s)
    layer.setdefault(f"{kind}.build_s", []).append(build_s)
    layer.setdefault(f"{kind}.plan_bytes", []).append(float(plan_nbytes(plan)))
    if kind == "forest":
        arr = np.asarray(system.initial, dtype=np.float64)[: system.n]
        with spans.span("core.floor", rid):
            _, floor = timed(np.add.accumulate, arr)
        layer.setdefault("floor_s", []).append(floor)


def planned_rounds(seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_S))


def planned_requests(seconds: float) -> int:
    return len(KINDS) * planned_rounds(seconds)


def run(ctx) -> WorkloadResult:
    size = SIZES[ctx.scale]
    result = WorkloadResult()
    if not ctx.trace:
        result.setup_s = [set_up_s() for _ in range(SETUPS)]
    corrupt = Corruptor(ctx.corrupt_every)
    quiet = Spans(False)

    def plain_round(i: int) -> List[Request]:
        return run_round(ctx, size, quiet, corrupt, i)

    if not ctx.trace:
        result.requests = closed_loop(ctx, planned_rounds(ctx.seconds), plain_round)
        result.plan_bytes = float(plan_cache_info()["bytes"])
        result.peak_rss_mb = own_peak_rss_mb()
        return result

    half = max(1, planned_rounds(ctx.seconds) // 2)
    plain = closed_loop(ctx, half, plain_round)
    layer: Dict[str, List[float]] = {}
    registry = obs.enable_metrics()
    try:
        traced = closed_loop(
            ctx,
            half,
            lambda i: run_round(
                ctx, size, ctx.spans, corrupt, len(plain) + i, registry, layer
            ),
        )
    finally:
        obs.disable()
    result.per_layer = per_layer(layer)
    untraced_rate = service_rate(plain)
    result.per_layer["obs.trace_overhead_frac"] = (
        1.0 - service_rate(traced) / untraced_rate if untraced_rate else 0.0
    )
    # The serve layer: an open-loop phase against ``python -m repro
    # serve`` (see serve_open.py), half the run long.
    sent, serve = serve_open.serve_layer(
        ctx.seed, ctx.seconds / 2, ctx.scale, ctx.spans, corrupt, result.notes
    )
    serve["engine.failover.reroutes"] += result.per_layer["engine.failover.reroutes"]
    result.per_layer.update(serve)
    result.requests = plain + traced + [s.request for s in sent]
    return result


def per_layer(layer: Dict[str, List[float]]) -> Dict[str, float]:
    def med(key: str) -> float:
        return median(layer.get(key, []))

    info = plan_cache_info()
    lookups = info["hits"] + info["misses"]
    gir_solves = len(layer.get("gir.loop_s", []))
    out = {f"core.loop_s.{kind}": med(f"{kind}.loop_s") for kind in KINDS}
    out.update({
        "core.floor_s": med("floor_s"),
        "engine.problem.fingerprint_s": med("fingerprint_s"),
        "engine.planner.cache_hit_ratio": info["hits"] / lookups if lookups else 0.0,
        "engine.planner.cache_bytes": float(info["bytes"]),
        "core.cap.iterations": med("gir.cap_iterations"),
        "core.cap.edge_work": med("gir.cap_edge_work"),
        "gir.power_ops": (
            sum(layer.get("gir.power_ops", [])) / gir_solves if gir_solves else 0.0
        ),
        "gir.combine_ops": (
            sum(layer.get("gir.combine_ops", [])) / gir_solves if gir_solves else 0.0
        ),
        "engine.failover.reroutes": float(sum(
            sum(layer.get(f"{kind}.reroutes", [])) for kind in KINDS
        )),
    })
    for kind in KINDS:
        out[f"engine.planner.build_s.{FAMILY[kind]}"] = med(f"{kind}.build_s")
        out[f"engine.planner.plan_bytes.{FAMILY[kind]}"] = med(f"{kind}.plan_bytes")
    return out
