"""Numeric-health guard for the float fast paths.

The paper's algorithms are exact over a monoid; the float64 engines
trade that exactness for speed and inherit IEEE-754 edge cases the
exact semantics does not have:

* an intermediate that overflows to ``inf`` can later meet a
  structural zero and produce ``0 * inf = NaN`` where exact arithmetic
  yields the absorbing constant;
* the Moebius ``odot`` degeneracy rule tests ``det == 0`` -- exact in
  the paper's algebra, but under float accumulation a mathematically
  singular matrix drifts to ``det ~ 1e-18`` and gets misclassified as
  a non-constant map.

:class:`NumericGuard` packages the tolerance-aware replacements for
those tests plus the health checks the degradation ladder
(:func:`repro.core.moebius.solve_moebius` in ``auto`` mode) uses to
decide when to escalate float64 -> exact ``Fraction``/object engine ->
sequential baseline.  Every trip and escalation is recorded in the
:mod:`repro.obs` registry (``resilience.guard.trips``,
``resilience.escalations``) when observation is enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

import numpy as np

from ..obs import get_registry
from ..obs.recorder import record_event

__all__ = ["GuardReport", "NumericGuard", "default_guard"]


def _is_float(x: Any) -> bool:
    return isinstance(x, (float, np.floating))


@dataclass
class GuardReport:
    """Outcome of one :meth:`NumericGuard.check_values` scan."""

    where: str = ""
    checked: int = 0
    nan_count: int = 0
    inf_count: int = 0
    bad_cells: List[int] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when no fatal condition was found (``inf`` only counts
        as fatal when the owning guard says so -- see
        :meth:`NumericGuard.check_values`)."""
        return not self.bad_cells

    def to_dict(self) -> Dict[str, Any]:
        return {
            "where": self.where,
            "checked": self.checked,
            "nan_count": self.nan_count,
            "inf_count": self.inf_count,
            "bad_cells": self.bad_cells[:20],
        }

    def describe(self) -> str:
        return (
            f"{self.where or 'values'}: {self.nan_count} NaN, "
            f"{self.inf_count} Inf in {self.checked} cells"
        )


@dataclass(frozen=True)
class NumericGuard:
    """Tolerance-aware numeric health checks.

    Attributes
    ----------
    det_rel_tol:
        Relative tolerance of the singularity test: a determinant
        ``ad - bc`` counts as zero when ``|ad - bc| <= tol * (|ad| +
        |bc|)``.  The default (64 ulp-ish) absorbs the drift a chain of
        float products accumulates while leaving genuinely regular maps
        untouched; ``0.0`` reproduces the exact ``det == 0`` test.
    nan_fatal:
        Whether a ``NaN`` result cell trips the guard (it always should:
        the sequential float loop can produce ``inf`` legitimately, but
        the solvers only manufacture ``NaN`` out of thin air).
    inf_fatal:
        Whether ``inf`` result cells trip the guard.  Off by default --
        overflow-to-inf matches the sequential loop's float semantics.
    """

    det_rel_tol: float = 64 * np.finfo(np.float64).eps
    nan_fatal: bool = True
    inf_fatal: bool = False

    # -- singularity ------------------------------------------------------

    def is_singular(self, det: Any, scale: Any) -> bool:
        """Scale-aware ``det == 0``: true when ``|det| <= tol * scale``.

        Exact zero is always singular (including for non-float exact
        types, where the tolerance never fires).
        """
        if det == 0:
            return True
        if not _is_float(det):
            return False
        return abs(det) <= self.det_rel_tol * abs(scale)

    def mat_is_constant(self, mat: Any) -> bool:
        """Tolerance-aware version of :meth:`repro.core.moebius.Mat2.
        is_constant_map` (singular = constant map)."""
        p, q = mat.a * mat.d, mat.b * mat.c
        return self.is_singular(p - q, abs(p) + abs(q))

    def singular_mask(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        d: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`is_singular` over entry arrays: the mask of
        matrices ``[[a,b],[c,d]]`` that count as constant maps."""
        p = a * d
        q = b * c
        det = p - q
        if self.det_rel_tol == 0.0:
            return det == 0
        scale = np.abs(p) + np.abs(q)
        with np.errstate(invalid="ignore"):
            return np.abs(det) <= self.det_rel_tol * scale

    # -- health scans -----------------------------------------------------

    def check_values(
        self, values: Iterable[Any], *, where: str = ""
    ) -> GuardReport:
        """Scan result cells for NaN/Inf; only float cells are examined
        (exact types cannot be unhealthy)."""
        report = GuardReport(where=where)
        for cell, v in enumerate(values):
            report.checked += 1
            if not _is_float(v):
                continue
            if math.isnan(v):
                report.nan_count += 1
                if self.nan_fatal:
                    report.bad_cells.append(cell)
            elif math.isinf(v):
                report.inf_count += 1
                if self.inf_fatal:
                    report.bad_cells.append(cell)
        return report

    def check_array(self, values: np.ndarray, *, where: str = "") -> GuardReport:
        """:meth:`check_values` over a float array in one vectorized
        pass (same counts, same ``bad_cells`` order)."""
        nan, inf = np.isnan(values), np.isinf(values)
        bad = np.zeros(values.shape, dtype=bool)
        if self.nan_fatal:
            bad |= nan
        if self.inf_fatal:
            bad |= inf
        return GuardReport(
            where=where,
            checked=int(values.size),
            nan_count=int(nan.sum()),
            inf_count=int(inf.sum()),
            bad_cells=np.flatnonzero(bad).tolist(),
        )

    # -- observability ----------------------------------------------------

    def record_trip(self, *, kind: str, engine: str) -> None:
        """Count a guard trip in the obs registry (no-op when
        observation is off) and buffer it in the flight recorder
        (always on)."""
        record_event("guard.trip", guard_kind=kind, engine=engine)
        registry = get_registry()
        if registry is not None:
            registry.counter(
                "resilience.guard.trips", kind=kind, engine=engine
            ).inc()

    def record_escalation(self, *, source: str, target: str) -> None:
        """Count a ladder escalation ``source -> target`` engine."""
        record_event("guard.escalation", source=source, target=target)
        registry = get_registry()
        if registry is not None:
            registry.counter(
                "resilience.escalations", source=source, target=target
            ).inc()


_DEFAULT = NumericGuard()


def default_guard() -> NumericGuard:
    """The shared default guard used by ``engine="auto"`` solves."""
    return _DEFAULT
