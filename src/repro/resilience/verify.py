"""Differential verification of parallel solves.

The paper's central claim is that each parallel solver computes the
same array as the obvious O(n) sequential loop.  ``checked=`` solves
re-derive a sample of cells through :mod:`repro.core.sequential` and
compare; a mismatch raises :class:`~repro.errors.VerificationError`
with the offending cells.

Verification is sampled (``sample=`` cells, seeded) because the full
oracle re-run is O(n) sequential work -- the exact thing the parallel
solve exists to avoid.  ``sample=None`` checks every cell.

Core imports happen inside functions: resilience is a leaf package the
core solvers import, so importing core at module scope here would be
circular.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional, Sequence

from ..errors import VerificationError
from ..obs import get_registry

__all__ = ["check_against_oracle", "differential_check"]

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _cells_match(got: Any, want: Any) -> bool:
    got_f = isinstance(got, float)
    want_f = isinstance(want, float)
    if got_f or want_f:
        try:
            g, w = float(got), float(want)
        except (TypeError, ValueError):
            return got == want
        if math.isnan(g) and math.isnan(w):
            return True
        return math.isclose(g, w, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    return got == want


def check_against_oracle(
    result: Sequence[Any],
    oracle: Sequence[Any],
    *,
    label: str = "solve",
    sample: Optional[int] = 64,
    seed: int = 0,
) -> None:
    """Compare ``result`` against a precomputed oracle array.

    Raises :class:`VerificationError` listing mismatching cells; counts
    the outcome in the obs registry as
    ``resilience.verify.checks{label, outcome}``.
    """
    if len(result) != len(oracle):
        raise VerificationError(
            f"{label}: result has {len(result)} cells, oracle has "
            f"{len(oracle)}"
        )
    n = len(result)
    if sample is None or sample >= n:
        cells: Sequence[int] = range(n)
    else:
        cells = random.Random(seed).sample(range(n), sample)
    mismatches: List[tuple] = []
    for cell in cells:
        if not _cells_match(result[cell], oracle[cell]):
            mismatches.append((cell, result[cell], oracle[cell]))
    registry = get_registry()
    if registry is not None:
        registry.counter(
            "resilience.verify.checks",
            label=label,
            outcome="fail" if mismatches else "pass",
        ).inc()
    if mismatches:
        cell, got, want = mismatches[0]
        raise VerificationError(
            f"{label}: differential check failed on "
            f"{len(mismatches)}/{len(cells)} sampled cells "
            f"(first: cell {cell} got {got!r}, oracle {want!r})",
            mismatches=mismatches,
        )


def differential_check(
    kind: str,
    system: Any,
    result: Sequence[Any],
    *,
    sample: Optional[int] = 64,
    seed: int = 0,
    f_initial: Optional[Sequence[Any]] = None,
) -> None:
    """Re-run the sequential oracle for ``system`` and compare.

    ``kind`` selects the sequential loop: ``"ordinary"`` (honoring an
    ``f_initial`` override), ``"gir"`` or ``"moebius"``.
    """
    if kind == "ordinary":
        from ..core.ordinary import _sequential_baseline

        oracle = _sequential_baseline(system, f_initial)
    elif kind == "gir":
        from ..core import sequential

        oracle = sequential.run_gir(system)
    elif kind == "moebius":
        from ..core.moebius import run_moebius_sequential

        oracle = run_moebius_sequential(system)
    else:
        raise ValueError(f"unknown differential-check kind {kind!r}")
    check_against_oracle(
        result, oracle, label=f"{kind}.checked", sample=sample, seed=seed
    )
