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
  rename/dispatch knobs;
* ``solve_moebius`` maps the historical ``engine=`` names onto the
  engine's backend + ``options={"path": ...}``;
* ``solve_affine_numpy`` / ``solve_rational_numpy`` pin the numpy
  backend's ``affine`` / ``rational`` path (``options={"path": ...}``);
  an explicit path runs unguarded unless a guard is passed -- their
  historical bit-level contract.

All return ``(values, stats)`` tuples like the originals.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.engine import EngineOptions
from repro.engine import solve as engine_solve

__all__ = [
    "solve_ordinary",
    "solve_ordinary_numpy",
    "solve_gir",
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
) -> Tuple[List[Any], Any]:
    result = engine_solve(
        system,
        collect_stats=collect_stats,
        allow_rename=allow_rename,
        allow_ordinary_dispatch=allow_ordinary_dispatch,
        options=EngineOptions(
            backend="numpy",
            policy=policy,
            checked=checked,
            check_sample=check_sample,
        ),
    )
    return result.values, result.stats


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
