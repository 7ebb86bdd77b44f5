"""Structured failure taxonomy for the reproduction.

Every failure mode the library can diagnose flows through one of the
exception classes below, so callers (and the CLI) can react to the
*category* of a failure rather than string-matching messages:

==========================  ===========  =======================================
class                       exit code    meaning
==========================  ===========  =======================================
:class:`ReproError`         1            base class; anything diagnosed by us
:class:`IRValidationError`  3            malformed IR system (domains, maps)
:class:`CyclicDependenceError`  3        a dependence cycle that would hang
:class:`PolicyError`        4            a :class:`~repro.resilience.SolvePolicy`
                                         budget/timeout was exhausted
:class:`NumericHealthError` 5            the numeric guard found NaN/Inf/degeneracy
                                         and no ladder rung could recover
:class:`VerificationError`  6            differential check against the
                                         sequential oracle failed
:class:`FaultError`         7            fault injection / recovery failure
                                         (the PRAM machine)
:class:`CheckError`         8            static analysis (:mod:`repro.check`)
                                         found an error-severity finding
==========================  ===========  =======================================

Each class carries ``exit_code`` and ``category`` attributes; the CLI
maps an uncaught :class:`ReproError` onto its ``exit_code`` and prints
the structured :meth:`ReproError.diagnosis`.  Pre-existing exception
contracts are preserved through multiple inheritance:
:class:`IRValidationError` is still a :class:`ValueError` and
:class:`NumericHealthError` is an :class:`ArithmeticError`, so callers
that caught the builtin types keep working.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "ReproError",
    "IRValidationError",
    "CyclicDependenceError",
    "PolicyError",
    "IterationBudgetExceeded",
    "SolveTimeoutError",
    "NumericHealthError",
    "VerificationError",
    "FaultError",
    "UnrecoverableFaultError",
    "CheckError",
    "PlanVerificationError",
    "exit_code_for",
]


class ReproError(Exception):
    """Base class of all structured failures raised by this library.

    Construction notifies the always-on flight recorder
    (:mod:`repro.obs.recorder`): the error is buffered alongside the
    events leading up to it, and -- when a crash-dump directory is
    configured -- a crash-report JSON is written for the structured
    exit codes (3-8).  ``crash_report_path`` holds the report's path
    when one was written.

    ``findings`` optionally carries :class:`repro.check.Finding`
    instances (structured static-analysis facts) explaining the
    failure; they are included in :meth:`diagnosis` and hence in crash
    reports and CLI ``--json`` error output.
    """

    exit_code: int = 1
    category: str = "generic"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        findings = kwargs.pop("findings", None)
        super().__init__(*args, **kwargs)
        self.findings: List[Any] = list(findings) if findings else []
        self.crash_report_path: Optional[str] = None
        try:
            from repro.obs.recorder import on_structured_error

            self.crash_report_path = on_structured_error(self)
        except Exception:  # telemetry must never mask the real failure
            pass

    def diagnosis(self) -> Dict[str, Any]:
        """Machine-readable description of the failure (CLI ``--json``
        error output and the obs event log both use it)."""
        doc: Dict[str, Any] = {
            "category": self.category,
            "type": type(self).__name__,
            "message": str(self),
        }
        if self.findings:
            doc["findings"] = [
                f.to_dict() if hasattr(f, "to_dict") else repr(f)
                for f in self.findings
            ]
        return doc


class IRValidationError(ReproError, ValueError):
    """An IR system violates its class's structural requirements
    (domain errors, non-distinct ``g`` for OrdinaryIR, missing
    commutativity for GIR, ...)."""

    exit_code = 3
    category = "validation"


class CyclicDependenceError(IRValidationError):
    """A dependence structure contains a cycle, so the doubling /
    pointer-jumping iterations would never converge.  ``cycle`` lists
    the node ids on the offending cycle."""

    def __init__(
        self,
        message: str,
        *,
        cycle: Optional[Sequence[int]] = None,
        findings: Optional[Sequence[Any]] = None,
    ):
        self.cycle: List[int] = list(cycle) if cycle is not None else []
        super().__init__(message, findings=findings)

    def diagnosis(self) -> Dict[str, Any]:
        doc = super().diagnosis()
        doc["cycle"] = self.cycle
        return doc


class PolicyError(ReproError):
    """A :class:`repro.resilience.SolvePolicy` limit was exhausted and
    the policy's ``on_exhaustion`` behaviour is ``"raise"``."""

    exit_code = 4
    category = "policy"


class IterationBudgetExceeded(PolicyError):
    """The solve used up its round/iteration budget."""

    def __init__(self, message: str, *, rounds: int = 0, budget: int = 0):
        super().__init__(message)
        self.rounds = rounds
        self.budget = budget

    def diagnosis(self) -> Dict[str, Any]:
        doc = super().diagnosis()
        doc.update(rounds=self.rounds, budget=self.budget)
        return doc


class SolveTimeoutError(PolicyError):
    """The solve exceeded its wall-clock budget."""

    def __init__(self, message: str, *, elapsed: float = 0.0, timeout: float = 0.0):
        super().__init__(message)
        self.elapsed = elapsed
        self.timeout = timeout

    def diagnosis(self) -> Dict[str, Any]:
        doc = super().diagnosis()
        doc.update(elapsed=self.elapsed, timeout=self.timeout)
        return doc


class NumericHealthError(ReproError, ArithmeticError):
    """The numeric guard tripped (NaN/Inf/degenerate determinant) and
    no rung of the degradation ladder produced a verified answer."""

    exit_code = 5
    category = "numeric"

    def __init__(self, message: str, *, report: Optional[Any] = None):
        super().__init__(message)
        self.report = report

    def diagnosis(self) -> Dict[str, Any]:
        doc = super().diagnosis()
        if self.report is not None:
            describe = getattr(self.report, "to_dict", None)
            doc["report"] = describe() if callable(describe) else repr(self.report)
        return doc


class VerificationError(ReproError):
    """Differential verification against the sequential oracle found
    mismatching cells.  ``mismatches`` holds ``(cell, got, want)``."""

    exit_code = 6
    category = "verification"

    def __init__(self, message: str, *, mismatches: Optional[Sequence[tuple]] = None):
        super().__init__(message)
        self.mismatches: List[tuple] = list(mismatches) if mismatches else []

    def diagnosis(self) -> Dict[str, Any]:
        doc = super().diagnosis()
        doc["mismatches"] = [
            {"cell": c, "got": repr(got), "want": repr(want)}
            for c, got, want in self.mismatches[:20]
        ]
        return doc


class FaultError(ReproError):
    """A fault-domain failure: the PRAM fault-injection machinery could
    not recover.  The engine's backend failover ladder treats this
    category as "this backend is sick, try the next capable one"."""

    exit_code = 7
    category = "fault"


class UnrecoverableFaultError(FaultError):
    """Checkpoint/retry could not reach two agreeing executions of a
    superstep within the machine's retry budget."""

    def __init__(self, message: str, *, step: int = -1, attempts: int = 0):
        super().__init__(message)
        self.step = step
        self.attempts = attempts

    def diagnosis(self) -> Dict[str, Any]:
        doc = super().diagnosis()
        doc.update(step=self.step, attempts=self.attempts)
        return doc


class CheckError(ReproError):
    """Static analysis (:mod:`repro.check`) found error-severity
    findings.  Raised only on explicit opt-in (``verify_plan=True``,
    ``repro check``) -- and for a caller-held GIR plan reduced modulo
    another operator's power period: the checkers themselves report,
    never raise."""

    exit_code = 8
    category = "check"


class PlanVerificationError(CheckError):
    """A solve plan failed schedule verification.  ``report`` is the
    full :class:`repro.check.CheckReport`; ``findings`` (inherited)
    holds its error-severity findings."""

    def __init__(self, message: str, *, report: Optional[Any] = None):
        self.report = report
        errors = list(getattr(report, "errors", None) or [])
        super().__init__(message, findings=errors)

    def diagnosis(self) -> Dict[str, Any]:
        doc = super().diagnosis()
        if self.report is not None and hasattr(self.report, "to_dict"):
            doc["report"] = self.report.to_dict()
        return doc


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code for an exception (2 is reserved for argparse
    usage errors, 1 for undiagnosed failures)."""
    if isinstance(exc, ReproError):
        return exc.exit_code
    return 1
