"""Execution policies for the parallel solvers.

The paper's algorithms provably terminate in ``O(log n)`` rounds --
*on well-formed inputs*.  A hand-built dependence structure with a
cycle, an adversarial index map, or simply a much larger problem than
expected can turn "provably logarithmic" into "longer than the caller
is willing to wait".  A :class:`SolvePolicy` bounds a solve by

* ``max_rounds`` -- an iteration budget on the solver's doubling loop
  (pointer-jumping rounds, CAP doubling iterations, Moebius rounds);
* ``timeout_s`` -- a wall-clock budget checked once per round;

and says what happens on exhaustion:

* ``"raise"``    -- raise :class:`~repro.errors.IterationBudgetExceeded`
  or :class:`~repro.errors.SolveTimeoutError` (default);
* ``"fallback"`` -- abandon the parallel solve and run the exact
  sequential baseline (:mod:`repro.core.sequential`), which is slower
  but O(n) and cannot diverge;
* ``"partial"``  -- return the current (partially concatenated) state
  as-is, flagged via the enforcer; useful for anytime estimates and
  for tests probing partial convergence.

Solvers accept ``policy=`` and drive a per-solve
:class:`PolicyEnforcer`; exhaustion events are counted in the obs
registry as ``resilience.policy.exhausted{label, reason}``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..errors import IterationBudgetExceeded, SolveTimeoutError
from ..obs import get_registry
from ..obs.recorder import record_event

__all__ = ["SolvePolicy", "PolicyEnforcer", "budget_clock"]

_BEHAVIOURS = ("raise", "fallback", "partial")


def budget_clock() -> float:
    """The monotonic clock every budget computation reads.

    A single seam (instead of scattered ``time.monotonic()`` calls)
    means tests can drive deterministic timeout behaviour -- e.g. the
    cumulative batch-budget tests advance a fake clock from inside the
    operator -- without monkeypatching ``time`` globally.
    """
    return time.monotonic()


@dataclass(frozen=True)
class SolvePolicy:
    """Bounds on one parallel solve (immutable; share freely)."""

    max_rounds: Optional[int] = None
    timeout_s: Optional[float] = None
    on_exhaustion: str = "raise"

    def __post_init__(self) -> None:
        if self.on_exhaustion not in _BEHAVIOURS:
            raise ValueError(
                f"on_exhaustion must be one of {_BEHAVIOURS}, "
                f"got {self.on_exhaustion!r}"
            )
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ValueError("timeout_s must be >= 0")

    @property
    def unbounded(self) -> bool:
        return self.max_rounds is None and self.timeout_s is None

    def enforcer(self, label: str) -> "PolicyEnforcer":
        """A fresh per-solve enforcement clock."""
        return PolicyEnforcer(self, label)

    def with_remaining(self, started: float) -> "SolvePolicy":
        """This policy with ``timeout_s`` reduced by the time elapsed
        since ``started`` (a :func:`budget_clock` reading).

        Batch drivers use it to make one wall-clock budget cumulative
        across per-row solves: each row gets whatever is left, and a
        fully spent budget (``timeout_s == 0.0``) trips the next row's
        enforcer on its first admit.
        """
        if self.timeout_s is None:
            return self
        import dataclasses

        remaining = self.timeout_s - (budget_clock() - started)
        return dataclasses.replace(self, timeout_s=max(remaining, 0.0))


class PolicyEnforcer:
    """Mutable per-solve budget clock.

    Solvers call :meth:`admit` before every doubling round.  It returns
    ``True`` while the budget allows another round; on exhaustion it
    either raises (``on_exhaustion="raise"``) or records the reason and
    returns ``False`` so the solver can fall back / return partial
    state (inspect :attr:`exhausted`).
    """

    def __init__(self, policy: SolvePolicy, label: str):
        self.policy = policy
        self.label = label
        self.rounds = 0
        self.started = budget_clock()
        self.exhausted: Optional[str] = None  # None | "rounds" | "timeout"

    def admit(self) -> bool:
        """True when the next round fits the budget; counts the round."""
        policy = self.policy
        if policy.max_rounds is not None and self.rounds >= policy.max_rounds:
            return self.exhaust("rounds")
        if policy.timeout_s is not None:
            if budget_clock() - self.started > policy.timeout_s:
                return self.exhaust("timeout")
        self.rounds += 1
        return True

    def exhaust(self, reason: str) -> bool:
        """Record exhaustion (``"rounds"`` / ``"timeout"``); raise under
        ``"raise"``, else ``False``."""
        self.exhausted = reason
        record_event(
            "policy.exhausted", label=self.label, reason=reason, rounds=self.rounds
        )
        registry = get_registry()
        if registry is not None:
            registry.counter(
                "resilience.policy.exhausted", label=self.label, reason=reason
            ).inc()
        policy = self.policy
        if policy.on_exhaustion != "raise":
            return False
        if reason == "rounds":
            raise IterationBudgetExceeded(
                f"{self.label}: iteration budget of "
                f"{policy.max_rounds} round(s) exhausted",
                rounds=self.rounds,
                budget=policy.max_rounds,
            )
        elapsed = budget_clock() - self.started
        raise SolveTimeoutError(
            f"{self.label}: wall-clock budget of {policy.timeout_s}s "
            f"exhausted after {self.rounds} round(s)",
            elapsed=elapsed,
            timeout=policy.timeout_s,
        )

    @property
    def should_fallback(self) -> bool:
        return (
            self.exhausted is not None
            and self.policy.on_exhaustion == "fallback"
        )

    @property
    def is_partial(self) -> bool:
        return (
            self.exhausted is not None
            and self.policy.on_exhaustion == "partial"
        )
