"""Resilience layer: numeric guards, fault injection, execution policies.

Four pillars, all optional and all off by default:

* :class:`NumericGuard` -- tolerance-aware numeric health checks
  backing the float fast paths' degradation ladder
  (float64 -> exact object engine -> sequential baseline);
* :class:`FaultPlan` / :class:`FaultEvent` -- seeded, serializable
  fault schedules for the PRAM machine's checkpoint/retry recovery;
* :class:`SolvePolicy` -- iteration/wall-clock budgets with
  raise/fallback/partial exhaustion behaviour, enforced by every
  doubling-loop solver;
* :func:`differential_check` -- sampled verification against the
  sequential oracle, behind ``checked=`` and the engine's
  ``numpy -> python`` failover ladder.

Failures surface through the :mod:`repro.errors` taxonomy.
"""

from .faults import FAULT_KINDS, FaultEvent, FaultPlan
from .guard import GuardReport, NumericGuard, default_guard
from .policy import PolicyEnforcer, SolvePolicy, budget_clock
from .verify import check_against_oracle, differential_check

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "GuardReport",
    "NumericGuard",
    "default_guard",
    "PolicyEnforcer",
    "SolvePolicy",
    "budget_clock",
    "check_against_oracle",
    "differential_check",
]
