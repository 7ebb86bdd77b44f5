"""Command-line interface: ``python -m repro <command>``.

Small, dependency-free front door to the reproduction:

* ``census``  -- print the Livermore recurrence census (section 1);
* ``fig3``    -- print the Fig-3 processor sweep (optionally ``--n``);
* ``explain`` -- diagnostics for a built-in demo system (``--demo``);
* ``scan``    -- prefix-scan a list of numbers with a chosen operator;
* ``solve``   -- solve an IR system stored as JSON (repro.core.serialize);
* ``trace``   -- run any other command with observation enabled;
* ``obs``     -- metrics tooling: ``serve`` (Prometheus endpoint),
  ``top`` (terminal table), ``diff`` (snapshot deltas);
* ``version`` -- package version (and the NumPy it runs on).

Observability (see ``docs/OBSERVABILITY.md``): ``solve``, ``fig3`` and
``census`` accept ``--trace-out FILE`` (Chrome-trace-format JSON,
loadable in Perfetto / ``chrome://tracing``) and ``--metrics-json
FILE`` (the metric-series snapshot); ``repro trace <cmd> ...`` wraps
*any* command, additionally offering ``--jsonl`` for the validated
event log and a terminal tree summary.  ``solve`` and ``census`` offer
``--json`` for machine-readable results.

The heavy artifacts live in ``benchmarks/``; the CLI wraps the common
interactive entry points.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, List, Optional

__all__ = ["main", "build_parser"]


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome-trace-format JSON of the run "
        "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write the metric-series snapshot as JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel solutions of indexed recurrence equations "
            "(Ben-Asher & Haber, IPPS 1997) -- reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("version", help="print the package version")

    census = sub.add_parser(
        "census", help="Livermore recurrence census (paper section 1)"
    )
    census.add_argument("--n", type=int, default=32, help="model size")
    census.add_argument(
        "--json", action="store_true", help="machine-readable census"
    )
    _add_obs_flags(census)

    fig3 = sub.add_parser("fig3", help="Fig-3 processor sweep")
    fig3.add_argument("--n", type=int, default=50_000, help="problem size")
    fig3.add_argument(
        "--max-p", type=int, default=4096, help="largest processor count"
    )
    _add_obs_flags(fig3)

    explain = sub.add_parser(
        "explain", help="diagnostics for a demo IR system"
    )
    explain.add_argument(
        "--demo",
        choices=["chain", "fibonacci", "scatter"],
        default="chain",
        help="which built-in system to explain",
    )
    explain.add_argument("--n", type=int, default=16)

    scan = sub.add_parser("scan", help="parallel prefix scan of numbers")
    scan.add_argument("values", nargs="+", type=float)
    scan.add_argument(
        "--op", choices=["add", "mul", "min", "max"], default="add"
    )

    solve = sub.add_parser(
        "solve", help="solve an IR system from a JSON file (see "
        "repro.core.serialize)"
    )
    solve.add_argument("path", help="JSON file written by dump_system")
    solve.add_argument(
        "--backend",
        choices=["auto", "python", "numpy", "pram"],
        default="auto",
        help="execution backend from the engine registry (default: auto; "
        "'pram' runs the simulated machine, OrdinaryIR only)",
    )
    solve.add_argument(
        "--stats", action="store_true", help="also print solver statistics"
    )
    solve.add_argument(
        "--json",
        action="store_true",
        help="print the result (cells, stats, agreement) as JSON",
    )
    solve.add_argument(
        "--policy-rounds",
        type=int,
        metavar="N",
        help="bound the solver's parallel rounds (SolvePolicy.max_rounds)",
    )
    solve.add_argument(
        "--policy-timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for the solve (SolvePolicy.timeout_s)",
    )
    solve.add_argument(
        "--on-exhaustion",
        choices=["raise", "fallback", "partial"],
        default="raise",
        help="what to do when a policy limit is hit (default: raise)",
    )
    solve.add_argument(
        "--check",
        action="store_true",
        help="differentially verify sampled cells against the "
        "sequential oracle (exit 6 on mismatch)",
    )
    solve.add_argument(
        "--verify",
        action="store_true",
        help="statically verify preconditions and the solve plan "
        "(repro.check) before trusting it (exit 8 on error findings)",
    )
    _add_obs_flags(solve)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio HTTP/JSON serving front end "
        "(repro.serve): pooled pinned sessions, request coalescing, "
        "per-tenant quotas, /metrics Prometheus exposure",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8377, help="TCP port (default: 8377; 0 "
        "picks a free port)"
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="coalescing gather window per problem lane (default: 2.0; "
        "0 disables coalescing)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="K",
        help="largest number of requests merged into one stacked sweep "
        "(default: 256)",
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        default=64,
        metavar="N",
        help="per-tenant in-flight request cap, 429 beyond it "
        "(default: 64)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="global in-flight cap, 503 backpressure beyond it "
        "(default: 1024)",
    )
    serve.add_argument(
        "--pool-capacity",
        type=int,
        default=32,
        metavar="N",
        help="session pool capacity, idle-LRU beyond it (default: 32)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline when the problem's policy "
        "has none (default: unbounded)",
    )
    serve.add_argument(
        "--problem",
        action="append",
        default=[],
        metavar="PATH",
        help="system JSON (dump_system format) to register at startup; "
        "repeatable",
    )
    serve.add_argument(
        "--backend",
        choices=["auto", "python", "numpy", "pram"],
        default="auto",
        help="backend for --problem registrations (default: auto)",
    )

    check = sub.add_parser(
        "check",
        help="statically verify a solve plan or IR system JSON file "
        "(race freedom, happens-before, preconditions; exit 8 on "
        "error findings)",
        description=(
            "Static analysis without execution: PATH is either a plan "
            "JSON (written by plan_to_dict) whose round schedule is "
            "proved race-free and trace-equivalent, or a system JSON "
            "(written by dump_system) whose paper preconditions are "
            "proved and whose plan is built and verified.  See "
            "docs/CHECKING.md for the finding-code reference."
        ),
    )
    check.add_argument("path", help="plan JSON or system JSON file")
    check.add_argument(
        "--json",
        action="store_true",
        help="print the full CheckReport as JSON",
    )

    lint = sub.add_parser(
        "lint",
        help="explain why loops in a Python file did or did not "
        "parallelize (stable IR0xx finding codes)",
        description=(
            "Parse a restricted-Python loop nest (repro.loops "
            "frontend) and report, per loop, the recognized IR class "
            "or the specific reason it falls back to sequential "
            "execution.  Exit 0 when no error finding, 8 otherwise; "
            "frontend rejections exit 2."
        ),
    )
    lint.add_argument("path", help="Python source file containing the kernel")
    lint.add_argument(
        "--const",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="bind a consts name used in range bounds / indices "
        "(repeatable)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="print the findings as JSON",
    )

    faults = sub.add_parser(
        "faults",
        help="generate or replay a PRAM fault-injection plan",
        description=(
            "Fault-injection driver for the PRAM interpreter: "
            "'repro faults gen --seed 7 --steps 6 --out plan.json' writes a "
            "deterministic plan; 'repro faults run --plan plan.json' replays "
            "it against a demo OrdinaryIR run and reports whether every "
            "fault was detected, recovered, and the final array still "
            "matches the sequential oracle."
        ),
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    fgen = faults_sub.add_parser("gen", help="generate a seeded fault plan")
    fgen.add_argument("--seed", type=int, default=0, help="plan RNG seed")
    fgen.add_argument(
        "--steps", type=int, default=6, help="superstep range faults land in"
    )
    fgen.add_argument("--count", type=int, default=4, help="number of faults")
    fgen.add_argument(
        "--out", metavar="FILE", help="write the plan JSON here (default: stdout)"
    )
    frun = faults_sub.add_parser(
        "run", help="replay a fault plan against a demo PRAM run"
    )
    frun.add_argument(
        "--plan", metavar="FILE", help="fault-plan JSON (default: a fresh "
        "seeded plan, see --seed)"
    )
    frun.add_argument("--seed", type=int, default=0, help="seed when no --plan")
    frun.add_argument("--n", type=int, default=32, help="chain length")
    frun.add_argument(
        "--processors", type=int, default=4, help="physical processors"
    )
    frun.add_argument(
        "--max-retries", type=int, default=3, help="recovery retry budget"
    )
    frun.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    _add_obs_flags(frun)

    trace = sub.add_parser(
        "trace",
        help="run another repro command with tracing + metrics enabled",
        description=(
            "Wrapper enabling repro.obs around any other command: "
            "repro trace [--out t.json] [--jsonl t.jsonl] solve sys.json"
        ),
    )
    trace.add_argument(
        "--out", metavar="FILE", help="write Chrome-trace-format JSON"
    )
    trace.add_argument(
        "--jsonl", metavar="FILE", help="write the JSONL event log"
    )
    trace.add_argument(
        "--metrics-json", metavar="FILE", help="write the metrics snapshot"
    )
    trace.add_argument(
        "--no-summary",
        action="store_true",
        help="suppress the terminal span-tree summary",
    )
    trace.add_argument(
        "cmd",
        nargs=argparse.REMAINDER,
        metavar="command ...",
        help="the repro command to run traced",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="metrics tooling: Prometheus endpoint, terminal top, snapshot diff",
        description=(
            "Operate on metric snapshots (written by --metrics-json or "
            "'repro trace --metrics-json'): 'repro obs serve --snapshot "
            "m.json --port 9100' exposes Prometheus text format over "
            "HTTP; 'repro obs top --snapshot m.json' prints a terminal "
            "table (add --watch N to refresh); 'repro obs diff a.json "
            "b.json' reports per-series deltas."
        ),
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    serve = obs_sub.add_parser(
        "serve", help="serve a snapshot as a Prometheus /metrics endpoint"
    )
    serve.add_argument(
        "--snapshot",
        required=True,
        metavar="FILE",
        help="metrics snapshot JSON (re-read on every scrape)",
    )
    serve.add_argument("--port", type=int, default=9100)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--prom-out",
        metavar="FILE",
        help="also write the exposition text here once and exit "
        "(no HTTP server; for the node-exporter textfile collector)",
    )
    top = obs_sub.add_parser(
        "top", help="terminal table of counters/gauges/histograms"
    )
    top.add_argument("--snapshot", required=True, metavar="FILE")
    top.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        help="re-read the snapshot file and redraw every SECONDS",
    )
    diff = obs_sub.add_parser(
        "diff", help="per-series delta between two metric snapshots"
    )
    diff.add_argument("before", metavar="BEFORE.json")
    diff.add_argument("after", metavar="AFTER.json")
    diff.add_argument(
        "--all", action="store_true", help="include unchanged series"
    )
    diff.add_argument(
        "--json", action="store_true", help="machine-readable delta rows"
    )

    return parser


class _Unreadable(Exception):
    """An input file a command could not read (CLI exit code 2)."""


def _read(path: str, loader=None):
    """``loader(path)`` (default: parse ``path`` as JSON), mapping an
    unreadable or malformed file to ``error: cannot read PATH``."""
    try:
        if loader is not None:
            return loader(path)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Unreadable(f"error: cannot read {path}: {exc}") from exc


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_version() -> int:
    import numpy

    from . import __version__

    print(f"repro {__version__} (numpy {numpy.__version__})")
    return 0


def _cmd_census(n: int, as_json: bool) -> int:
    from .livermore.classify import census, census_table

    entries = census(n=n)
    if as_json:
        payload = [
            {
                "kernel": e.number,
                "name": e.name,
                "group": e.group,
                "ir_class": e.ir_class.value if e.ir_class else None,
                "modeled": e.modeled,
                "basis": e.basis,
            }
            for e in entries
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(census_table(entries))
    return 0


def _cmd_fig3(n: int, max_p: int) -> int:
    import numpy as np

    from .analysis.reporting import series_table
    from .core import FLOAT_MUL, OrdinaryIRSystem, processor_sweep
    from .pram import profile_ordinary

    system = OrdinaryIRSystem.build(
        np.full(n + 1, 1.0000001), np.arange(1, n + 1), np.arange(n), FLOAT_MUL
    )
    _, profile = profile_ordinary(system)
    grid = processor_sweep(max_p)
    rows = profile.sweep(grid)
    print(series_table("P", grid, {
        "parallel_IR": [r["parallel_time"] for r in rows],
        "original_loop": [r["sequential_time"] for r in rows],
        "speedup": [r["speedup"] for r in rows],
    }))
    cross = profile.crossover_processors()
    print(f"\ncrossover: P = {cross}")
    return 0


def _cmd_explain(demo: str, n: int) -> int:
    import numpy as np

    from .core import CONCAT, GIRSystem, OrdinaryIRSystem, modular_mul
    from .core.diagnostics import explain_gir, explain_ordinary

    if demo == "chain":
        system = OrdinaryIRSystem.build(
            [(f"s{j}",) for j in range(n + 1)],
            list(range(1, n + 1)),
            list(range(n)),
            CONCAT,
        )
        print(explain_ordinary(system))
    elif demo == "fibonacci":
        system = GIRSystem.build(
            [2, 3] + [1] * n,
            [i + 2 for i in range(n)],
            [i + 1 for i in range(n)],
            [i for i in range(n)],
            modular_mul(10**9 + 7),
        )
        print(explain_gir(system))
    else:  # scatter
        rng = np.random.default_rng(0)
        m = max(n // 4, 1)
        system = GIRSystem.build(
            [1] * m,
            rng.integers(0, m, size=n),
            rng.integers(0, m, size=n),
            rng.integers(0, m, size=n),
            modular_mul(97),
        )
        print(explain_gir(system))
    return 0


def _cmd_scan(values: List[float], op_name: str) -> int:
    from .core.operators import FLOAT_ADD, FLOAT_MUL, MAX, MIN
    from .core.prefix import prefix_scan

    op = {"add": FLOAT_ADD, "mul": FLOAT_MUL, "min": MIN, "max": MAX}[op_name]
    out, stats = prefix_scan(values, op, collect_stats=True)
    print(" ".join(f"{v:g}" for v in out))
    if stats is not None:
        print(f"# {stats.rounds} parallel round(s)", file=sys.stderr)
    return 0


def _stats_dict(stats: object) -> Optional[dict]:
    import dataclasses

    if stats is None:
        return None
    return dataclasses.asdict(stats)  # type: ignore[call-overload]


def _cmd_solve(args: argparse.Namespace) -> int:
    from .core import GIRSystem, run_gir, run_ordinary
    from .core.serialize import load_system
    from .engine import EngineOptions
    from .engine import solve as engine_solve
    from .errors import ReproError
    from .resilience import SolvePolicy

    path = args.path
    show_stats = args.stats
    as_json = args.json
    policy = None
    if args.policy_rounds is not None or args.policy_timeout is not None:
        policy = SolvePolicy(
            max_rounds=args.policy_rounds,
            timeout_s=args.policy_timeout,
            on_exhaustion=args.on_exhaustion,
        )
    system = _read(path, load_system)
    try:
        solved = engine_solve(
            system,
            collect_stats=args.backend != "pram",
            options=EngineOptions(
                backend=args.backend,
                policy=policy,
                checked=args.check,
                verify_plan=args.verify,
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ReproError):
            raise  # e.g. a lossy cast into an integer operator: exit 3
        # backend/family mismatch (e.g. --backend pram on a GIR system)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, stats = solved.values, solved.stats
    reference = (
        run_gir(system) if isinstance(system, GIRSystem) else run_ordinary(system)
    )
    matches = result == reference
    if as_json:
        print(
            json.dumps(
                {
                    "cells": result,
                    "matches_sequential": matches,
                    "backend": solved.backend,
                    "strategy": solved.strategy,
                    "stats": _stats_dict(stats),
                },
                default=repr,
                indent=2,
            )
        )
    else:
        for cell, value in enumerate(result):
            print(f"A[{cell}] = {value}")
        if show_stats and stats is not None:
            print(f"# stats: {stats}", file=sys.stderr)
        if show_stats:
            print(
                f"# backend: {solved.backend} strategy: {solved.strategy}",
                file=sys.stderr,
            )
    if not matches and not as_json:
        print("# WARNING: parallel result differs from sequential "
              "(floating-point reassociation?)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .core.serialize import load_system
    from .engine import EngineOptions
    from .serve import RecurrenceServer, ServeConfig

    # Read every problem before the server (and its metrics) exists.
    systems = [(path, _read(path, load_system)) for path in args.problem]
    config = ServeConfig(
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        tenant_quota=args.tenant_quota,
        max_pending=args.max_pending,
        pool_capacity=args.pool_capacity,
        default_deadline_s=args.deadline,
    )
    server = RecurrenceServer(config)
    options = EngineOptions(backend=args.backend)
    for path, system in systems:
        problem = server.register(system, options=options)
        session = problem.lane.session
        print(
            f"registered {path}: family={session.family} "
            f"backend={session.backend} "
            f"fingerprint={problem.fingerprint[:12]}"
        )

    async def _main() -> None:
        host, port = await server.start()
        print(f"repro.serve listening on http://{host}:{port}")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _system_rules(plan) -> List[str]:
    """The system-backed rules a plan checked without its system cannot
    run (a level layout's LVL004, a chain layout's LVL005 too; a rounds
    plan's SCH006; a GIR plan's GIR013, and its table's period and the
    oracle its size picks: GIR004 up to ``GIR_ORACLE_MAX_N`` rows, else
    GIR007 and GIR008)."""
    if plan.family == "gir" and plan.dispatch is None:
        from .check.schedule import GIR_ORACLE_MAX_N

        unrun = ["GIR013"] + (["LVL004"] if plan.levels is not None else [])
        if plan.has_table:
            small = plan.n <= GIR_ORACLE_MAX_N
            unrun += (["GIR004"] if small else ["GIR007", "GIR008"]) + ["GIR009"]
        return unrun if plan.n else []
    inner = plan.dispatch if plan.family == "gir" else plan
    if inner.levels is None:
        return ["SCH006"]
    return ["LVL004"] + (["LVL005"] if inner.levels.offsets is not None else [])


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import check_system, verify_plan
    from .check.findings import CheckReport, warning

    path = args.path
    data = _read(path)
    if isinstance(data, dict) and "schema_version" in data and "family" in data:
        # A serialized plan (plan_to_dict): verify the schedule alone.
        from .engine.plan import plan_from_dict

        try:
            plan = plan_from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:  # another schema
            raise _Unreadable(f"error: cannot read {path}: {exc}") from exc
        report = verify_plan(plan)
        unrun = _system_rules(plan)  # the file holds no system
        if unrun:
            report.add(warning(
                "GIR014", f"a plan file carries no system: {', '.join(unrun)} not run",
                where=plan.family, hint="run `repro check SYSTEM.json` to run them too",
            ))
    elif isinstance(data, dict) and "kind" in data:
        # A serialized system (dump_system): prove preconditions, then
        # build its plan and verify that too.
        from .core.serialize import load_system
        from .engine.problem import Problem

        system = _read(path, load_system)
        report = CheckReport(subject=path)
        report.extend(check_system(system))
        if report.ok:
            problem = Problem.from_system(system)
            if problem.family == "gir":
                from .engine import EngineOptions
                from .engine import solve as engine_solve

                plan = engine_solve(system, options=EngineOptions(backend="numpy")).plan
            else:
                from .engine.driver import build_plan

                plan = build_plan(system, problem)
            if plan is not None:
                report.extend(verify_plan(plan, problem, system=system))
    else:
        print(
            f"error: {path} is neither a plan JSON (plan_to_dict) nor "
            "a system JSON (dump_system)",
            file=sys.stderr,
        )
        return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return 0 if report.ok else 8


def _cmd_lint(args: argparse.Namespace) -> int:
    from .check import lint_source
    from .loops.pyfrontend import FrontendError

    path = args.path
    consts = {}
    for item in args.const:
        name, sep, value = item.partition("=")
        if not sep or not name:
            print(f"error: --const expects NAME=INT, got {item!r}", file=sys.stderr)
            return 2
        try:
            consts[name] = int(value)
        except ValueError:
            print(f"error: --const {name} must be an int, got {value!r}",
                  file=sys.stderr)
            return 2
    source = _read(path, _read_text)
    try:
        report = lint_source(source, consts=consts or None)
    except FrontendError as exc:
        print(f"error [frontend]: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return 0 if report.ok else 8


def _cmd_faults_gen(args: argparse.Namespace) -> int:
    from .resilience import FaultPlan

    plan = FaultPlan.random(args.seed, steps=args.steps, count=args.count)
    if args.out:
        error = _check_writable(args.out)
        if error:
            print(error, file=sys.stderr)
            return 2
        plan.to_json(args.out)
        print(f"wrote {len(plan.events)} fault(s) to {args.out}", file=sys.stderr)
    else:
        print(plan.to_json())
    return 0


def _cmd_faults_run(args: argparse.Namespace) -> int:
    """Replay a fault plan against a demo OrdinaryIR run on the PRAM.

    The demo is an integer-sum chain of length ``--n``; the run is
    accepted when every injected fault was detected and recovered and
    the final array equals the sequential oracle *exactly*.
    """
    from .core import ADD, OrdinaryIRSystem, run_ordinary
    from .pram import run_ordinary_on_pram
    from .resilience import FaultPlan

    if args.plan:
        plan = _read(args.plan, FaultPlan.from_json)
    else:
        plan = FaultPlan.random(args.seed, steps=6, count=4)
    n = args.n
    system = OrdinaryIRSystem.build(
        initial=list(range(1, n + 2)),
        g=list(range(1, n + 1)),
        f=list(range(n)),
        op=ADD,
    )
    oracle = run_ordinary(system)
    out, metrics = run_ordinary_on_pram(
        system,
        processors=args.processors,
        fault_plan=plan,
        max_retries=args.max_retries,
    )
    matches = out == oracle
    ok = matches and metrics.faults_recovered == metrics.faults_detected
    report = {
        "ok": ok,
        "matches_oracle": matches,
        "faults_injected": metrics.faults_injected,
        "faults_detected": metrics.faults_detected,
        "faults_recovered": metrics.faults_recovered,
        "fault_retries": metrics.fault_retries,
        "injected": plan.injected,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"injected={metrics.faults_injected} "
            f"detected={metrics.faults_detected} "
            f"recovered={metrics.faults_recovered} "
            f"retries={metrics.fault_retries}"
        )
        for record in plan.injected:
            print(f"  fired: {record}")
        print("oracle match: " + ("yes" if matches else "NO"))
    return 0 if ok else 7


def _check_writable(*paths: Optional[str]) -> Optional[str]:
    """Return an error message if any output path's directory is
    missing -- checked up front so a typo fails before the work runs."""
    for path in paths:
        if not path:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            return f"error: output directory does not exist: {parent}"
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import obs

    inner = list(args.cmd)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        print("trace: missing command to run", file=sys.stderr)
        return 2
    if inner[0] == "trace":
        print("trace: cannot nest trace wrappers", file=sys.stderr)
        return 2
    error = _check_writable(args.out, args.jsonl, args.metrics_json)
    if error:
        print(error, file=sys.stderr)
        return 2
    inner_args = build_parser().parse_args(inner)
    with obs.observed() as (tracer, registry):
        code = _dispatch(inner_args)
        if args.out:
            obs.write_chrome_trace(args.out, tracer, registry)
        if args.jsonl:
            obs.write_jsonl(args.jsonl, tracer, registry)
        if args.metrics_json:
            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                json.dump(registry.snapshot(), handle, indent=2)
        if not args.no_summary:
            print(obs.tree_summary(tracer, registry), file=sys.stderr)
    return code


def _cmd_obs_serve(args: argparse.Namespace) -> int:
    from .obs import prom

    if not os.path.isfile(args.snapshot):
        print(f"error: no such snapshot: {args.snapshot}", file=sys.stderr)
        return 2
    source = lambda: prom.load_snapshot_file(args.snapshot)  # noqa: E731
    if args.prom_out:
        error = _check_writable(args.prom_out)
        if error:
            print(error, file=sys.stderr)
            return 2
        prom.write_prom_file(args.prom_out, source)
        print(f"wrote {args.prom_out}", file=sys.stderr)
        return 0
    server = prom.serve_http(source, port=args.port, host=args.host)
    host, port = server.server_address[:2]
    print(f"serving metrics on http://{host}:{port}/metrics", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import time as _time

    from .obs import format_top
    from .obs.prom import load_snapshot_file

    if not os.path.isfile(args.snapshot):
        print(f"error: no such snapshot: {args.snapshot}", file=sys.stderr)
        return 2
    while True:
        try:
            entries = load_snapshot_file(args.snapshot)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.snapshot}: {exc}", file=sys.stderr)
            return 2
        text = format_top(entries, title=f"repro obs top -- {args.snapshot}")
        if args.watch:
            print("\x1b[2J\x1b[H" + text, flush=True)  # clear + home
            try:
                _time.sleep(args.watch)
            except KeyboardInterrupt:
                return 0
        else:
            print(text)
            return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs import diff_snapshots, format_diff
    from .obs.prom import load_snapshot_file

    for path in (args.before, args.after):
        if not os.path.isfile(path):
            print(f"error: no such snapshot: {path}", file=sys.stderr)
            return 2
    rows = diff_snapshots(
        load_snapshot_file(args.before), load_snapshot_file(args.after)
    )
    if args.json:
        print(json.dumps(rows, indent=2, default=repr))
    else:
        print(format_diff(rows, include_unchanged=args.all))
    return 0


@contextlib.contextmanager
def _observed_exports(args: argparse.Namespace) -> Iterator[None]:
    """Enable observation when ``--trace-out``/``--metrics-json`` were
    passed, and write the requested files on success."""
    trace_out = getattr(args, "trace_out", None)
    metrics_json = getattr(args, "metrics_json", None)
    if not trace_out and not metrics_json:
        yield
        return
    error = _check_writable(trace_out, metrics_json)
    if error:
        print(error, file=sys.stderr)
        raise SystemExit(2)
    from . import obs

    with obs.observed() as (tracer, registry):
        yield
        if trace_out:
            obs.write_chrome_trace(trace_out, tracer, registry)
        if metrics_json:
            with open(metrics_json, "w", encoding="utf-8") as handle:
                json.dump(registry.snapshot(), handle, indent=2)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "version":
        return _cmd_version()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs":
        if args.obs_command == "serve":
            return _cmd_obs_serve(args)
        if args.obs_command == "top":
            return _cmd_obs_top(args)
        return _cmd_obs_diff(args)
    with _observed_exports(args):
        if args.command == "census":
            return _cmd_census(args.n, args.json)
        if args.command == "fig3":
            return _cmd_fig3(args.n, args.max_p)
        if args.command == "explain":
            return _cmd_explain(args.demo, args.n)
        if args.command == "scan":
            return _cmd_scan(args.values, args.op)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "faults":
            if args.faults_command == "gen":
                return _cmd_faults_gen(args)
            return _cmd_faults_run(args)
    raise AssertionError(args.command)


def main(argv: Optional[List[str]] = None) -> int:
    from .errors import ReproError, exit_code_for

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _Unreadable as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro obs top ... | head`);
        # exit quietly like other line-oriented tools do
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as exc:
        # Structured failures exit with their taxonomy code (see
        # repro.errors); --json commands get the diagnosis as JSON.
        if getattr(args, "json", False):
            print(json.dumps({"error": exc.diagnosis()}, indent=2))
        else:
            print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
