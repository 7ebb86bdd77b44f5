"""Historical per-family solver signatures for the test suite.

The ``repro.core.{solve_ordinary,solve_gir,solve_moebius,...}`` shims
were removed in repro 1.2.0; the engine front door
(:func:`repro.engine.solve`) is the only public entry point.  Many
tests, however, exercise the *algorithms* rather than the API surface,
and predate the engine -- rewriting hundreds of call sites would churn
them for no coverage gain.  This module re-creates the old signatures
as thin delegations onto the engine, with the exact semantics the
shims had:

* ``solve_ordinary`` / ``solve_ordinary_numpy`` pin the python/numpy
  backend respectively;
* ``solve_gir`` runs the numpy backend with the historical
  rename/dispatch knobs; ``table="batched"`` / ``"rows"`` solves on
  the CAP power-table plan (:func:`table_plan`) with the numpy /
  python backend, so a test of CAP and its table evaluators need not
  find a graph deeper than 62;
* ``solve_moebius`` maps the historical ``engine=`` names onto the
  engine's backend + ``options={"path": ...}``;
* ``solve_affine_numpy`` / ``solve_rational_numpy`` pin the numpy
  backend's ``affine`` / ``rational`` path (``options={"path": ...}``);
  an explicit path runs unguarded unless a guard is passed -- their
  historical bit-level contract.

All return ``(values, stats)`` tuples like the originals.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Tuple

from repro.core.cap import count_all_paths
from repro.core.depgraph import dependence_graph
from repro.core.equations import normalize_non_distinct
from repro.engine import EngineOptions
from repro.engine import solve as engine_solve
from repro.engine.exec_gir import build_plan
from repro.engine.plan import PowerTable
from repro.engine.problem import Problem

__all__ = [
    "solve_ordinary",
    "solve_ordinary_numpy",
    "solve_gir",
    "table_plan",
    "solve_moebius",
    "solve_affine_numpy",
    "solve_rational_numpy",
]


def solve_ordinary(
    system,
    *,
    collect_stats: bool = False,
    f_initial: Optional[List[Any]] = None,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
) -> Tuple[List[Any], Any]:
    result = engine_solve(
        system,
        collect_stats=collect_stats,
        f_initial=f_initial,
        options=EngineOptions(
            backend="python",
            policy=policy,
            checked=checked,
            check_sample=check_sample,
        ),
    )
    return result.values, result.stats


def solve_ordinary_numpy(
    system,
    *,
    collect_stats: bool = False,
    f_initial: Optional[List[Any]] = None,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
) -> Tuple[List[Any], Any]:
    result = engine_solve(
        system,
        collect_stats=collect_stats,
        f_initial=f_initial,
        options=EngineOptions(
            backend="numpy",
            policy=policy,
            checked=checked,
            check_sample=check_sample,
        ),
    )
    return result.values, result.stats


def solve_gir(
    system,
    *,
    collect_stats: bool = False,
    allow_rename: bool = True,
    allow_ordinary_dispatch: bool = True,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    table: Optional[str] = None,
) -> Tuple[List[Any], Any]:
    flags = dict(allow_rename=allow_rename, allow_ordinary_dispatch=allow_ordinary_dispatch)
    result = engine_solve(
        system,
        plan=None if table is None else table_plan(system, **flags),
        collect_stats=collect_stats,
        options=EngineOptions(
            backend="python" if table == "rows" else "numpy",
            policy=policy,
            checked=checked,
            check_sample=check_sample,
        ),
        **flags,
    )
    return result.values, result.stats


def table_plan(system, *, allow_rename: bool = True, allow_ordinary_dispatch: bool = True):
    """The CAP power-table plan of a GIR ``system``: the planner's plan
    when it is one (a graph deeper than 62, a dispatch plan), else the
    level plan with its layout traded for the table CAP counts over
    the same graph -- ``GIRPlan(table=PowerTable.from_cap(...))``."""
    problem = Problem.from_system(
        system, allow_rename=allow_rename, allow_ordinary_dispatch=allow_ordinary_dispatch
    )
    plan = build_plan(system, problem)
    if plan.levels is None:
        return plan
    work = normalize_non_distinct(system).system if plan.renamed else system
    cap = count_all_paths(dependence_graph(work), period=problem.period)
    return dataclasses.replace(
        plan,
        levels=None,
        table=PowerTable.from_cap(cap, plan.n),
        cap_iterations=cap.iterations,
        cap_edge_work=cap.edge_work,
    )


def solve_moebius(
    rec,
    *,
    collect_stats: bool = False,
    engine: str = "auto",
    guard: Any = "auto",
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
) -> Tuple[List[Any], Any]:
    backend = "python" if engine == "python" else "numpy"
    path = {"auto": "auto", "numpy": "object", "python": "object"}.get(
        engine, engine
    )
    result = engine_solve(
        rec,
        collect_stats=collect_stats,
        options=EngineOptions(
            backend=backend,
            policy=policy,
            checked=checked,
            check_sample=check_sample,
            backend_options={"path": path, "guard": guard},
        ),
    )
    return result.values, result.stats


def _fast_path(rec, path, collect_stats, guard, policy):
    result = engine_solve(
        rec,
        collect_stats=collect_stats,
        options=EngineOptions(
            backend="numpy",
            policy=policy,
            backend_options={"path": path, "guard": guard},
        ),
    )
    return result.values, result.stats


def solve_affine_numpy(
    rec,
    *,
    collect_stats: bool = False,
    guard=None,
    policy=None,
) -> Tuple[List[Any], Any]:
    return _fast_path(rec, "affine", collect_stats, guard, policy)


def solve_rational_numpy(
    rec,
    *,
    collect_stats: bool = False,
    guard=None,
    policy=None,
) -> Tuple[List[Any], Any]:
    return _fast_path(rec, "rational", collect_stats, guard, policy)
