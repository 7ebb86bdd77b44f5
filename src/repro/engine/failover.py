"""Backend failover ladder: degrade across backends, not to an error.

When a solve fails *structurally* -- a :class:`~repro.errors.FaultError`
or a :class:`~repro.errors.VerificationError` (the differential check
caught wrong values) -- the failing backend is not the last word: the
same request is re-executed on the next *capable* backend, in the
fixed preference order ``numpy -> python`` (the vectorized kernels
degrade to the exact pure-Python reference kernels; the order mirrors
the numeric escalation ladder float64 -> Fraction -> sequential).

Semantic failures never trip the ladder: a
:class:`~repro.errors.PolicyError` (budget exhausted), validation
errors, and numeric-health errors would fail identically on every
backend, so they propagate immediately.

Observability: ``engine.failover.reroutes{frm,to,family}`` /
``engine.failover.exhausted{family}`` counters and
``engine.failover`` flight-recorder events.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..errors import FaultError, VerificationError
from ..obs import get_registry
from ..obs.recorder import record_event
from .backends import Backend, get_backend
from .problem import Problem

__all__ = [
    "FAILOVER_TRIP",
    "LADDER_ORDER",
    "failover_ladder",
    "run_ladder",
]

#: Exception categories that mean "this backend is sick, try the next
#: one" rather than "this request is doomed everywhere".
FAILOVER_TRIP = (FaultError, VerificationError)

#: The degradation order: in-process, exact, covering every family --
#: a failover must never introduce a new failure domain.  Backends
#: outside this order (``pram``, custom registrations) never reroute:
#: the PRAM machine's structured fault verdicts are its purpose, and
#: custom backends opt in by their own means.
LADDER_ORDER = ("numpy", "python")


def failover_ladder(
    chosen: Backend, problem: Problem, *, batch: bool = False
) -> List[Backend]:
    """The chosen backend followed by every capable rung *below* it in
    the degradation order (never sideways or upward: a failover must
    strictly reduce the failure surface)."""
    rungs = [chosen]
    if chosen.name not in LADDER_ORDER:
        return rungs
    rank = LADDER_ORDER.index(chosen.name)
    for name in LADDER_ORDER[rank + 1:]:
        backend = get_backend(name)
        caps = backend.capabilities
        if problem.family not in caps.families:
            continue
        if batch and not caps.batch:
            continue
        rungs.append(backend)
    return rungs


def run_ladder(
    rungs: List[Backend],
    fingerprint: str,
    family: str,
    attempt: Callable[[Backend], Any],
) -> Tuple[Any, Backend, Optional[str]]:
    """Execute ``attempt`` down the ladder.

    Returns ``(result, served_backend, failover_from)`` where
    ``failover_from`` is the first rung's name when a later rung
    served (``None`` when the first rung succeeded).  Re-raises the
    last trip exception when every rung failed; non-trip exceptions
    propagate immediately from whichever rung raised them.
    """
    registry = get_registry()
    for i, backend in enumerate(rungs):
        try:
            result = attempt(backend)
        except FAILOVER_TRIP as exc:
            if i == len(rungs) - 1:
                if registry is not None:
                    registry.counter(
                        "engine.failover.exhausted", family=family
                    ).inc()
                record_event(
                    "engine.failover.exhausted",
                    family=family,
                    fingerprint=fingerprint[:12],
                    rungs=[b.name for b in rungs],
                )
                raise
            nxt = rungs[i + 1].name
            record_event(
                "engine.failover",
                frm=backend.name,
                to=nxt,
                family=family,
                fingerprint=fingerprint[:12],
                error=type(exc).__name__,
            )
            if registry is not None:
                registry.counter(
                    "engine.failover.reroutes",
                    frm=backend.name,
                    to=nxt,
                    family=family,
                ).inc()
            continue
        failover_from = rungs[0].name if backend is not rungs[0] else None
        return result, backend, failover_from
    raise ValueError("run_ladder needs at least one rung")
