"""Typed findings: the common currency of ``repro.check``.

Every layer of the static-analysis subsystem -- the schedule verifier,
the precondition prover, and the loop lint -- reports through the same
two types:

* :class:`Finding` -- one diagnosed fact, carrying a **stable code**
  (``SCH006``, ``PRE001``, ``IR003``, ...), a severity, a location
  string, a human message and a fix hint.  Codes are append-only API:
  tools and CI jobs key on them, so a code is never renamed or reused
  (see ``docs/CHECKING.md`` for the full reference).
* :class:`CheckReport` -- an ordered collection of findings plus a
  count of the checks that ran; ``ok`` is True when no *error*-severity
  finding is present.

This module is deliberately dependency-free (stdlib only): findings
are attached to :class:`repro.errors.ReproError` instances and crash
reports, so nothing here may import the packages being checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List

__all__ = [
    "Severity",
    "Finding",
    "CheckReport",
    "FINDING_CODES",
]

#: Severity levels, ordered weakest to strongest.
Severity = str
INFO: Severity = "info"
WARNING: Severity = "warning"
ERROR: Severity = "error"

_SEVERITIES = (INFO, WARNING, ERROR)

#: Registry of every stable finding code with a one-line title.
#: Append-only: codes are public API consumed by CI jobs and tooling; a
#: retired code (GIR010-GIR012, folded into LVL001-LVL003; CHN001-CHN004,
#: the separate chain layout's, folded into LVL001-LVL005; SCH001-SCH004,
#: the stored round schedule's, gone with it; GIR003, distinct output
#: cells, gone with the stored output cells) is never reused.
FINDING_CODES: Dict[str, str] = {
    # -- ordinary / Moebius plan verifier (SCH0xx) ---------------------
    "SCH005": "index out of range: a map leaves the array, or pred[i] not in [-1, i)",
    "SCH006": "predecessor array inconsistent with the (g, f) index maps",
    "SCH007": "plan shape/metadata inconsistent",
    "SCH008": "plan fingerprint does not match the problem",
    "SCH009": "plan g map is not injective",
    # -- level layout: chain and level plans, every family (LVL0xx) ----
    "LVL001": "level order is not a permutation of the iterations",
    "LVL002": "segment offsets or level pointers are not monotone or do not close",
    "LVL003": "an iteration's operand is not final when its level runs",
    "LVL004": "segment seeds disagree with the system's operands",
    "LVL005": "a segment member's f operand is not the member before it",
    # -- GIR plan artifacts (GIR0xx) -----------------------------------
    "GIR001": "nested dispatch plan failed verification",
    "GIR002": "GIR plan cell index out of range",
    "GIR004": "CAP power table disagrees with the dependence-graph oracle",
    "GIR005": "GIR plan carries neither dispatch nor CAP artifacts",
    "GIR006": "GIR power-table CSR structure is inconsistent",
    "GIR007": "power-table leaf counts drift from the dependence-graph totals",
    "GIR008": "sampled trace row disagrees with the exact leaf-count oracle",
    "GIR009": "power table reduced modulo a period other than the operator's",
    "GIR013": "GIR plan's renaming disagrees with the system's g",
    # (GIR014 keeps its name but covers every family: codes are never
    # renamed, and a level plan of any family holds no system maps)
    "GIR014": "plan checked without its system: system-backed rules not run",
    # -- precondition prover (PRE0xx) ----------------------------------
    "PRE001": "g index map is not injective (distinctness violated)",
    "PRE002": "index map leaves the array domain",
    "PRE003": "dependence structure contains a cycle",
    "PRE004": "GIR operator is not commutative",
    "PRE005": "operator is not associative",
    "PRE006": "Moebius coefficient is degenerate (det = 0 absorbing case)",
    "PRE007": "Moebius coefficient is not finite",
    "PRE008": "index-map shapes disagree",
    # -- loop lint (IR0xx) ---------------------------------------------
    "IR000": "loop recognized and parallelizable",
    "IR001": "target array read through unanalyzed index",
    "IR002": "mixed arithmetic/operator body",
    "IR003": "operator not declared associative",
    "IR004": "guard condition reads the recurrence variable",
    "IR005": "own-cell reduction with a non-arithmetic body",
    "IR006": "body has degree > 1 in the recurrence variable",
    "IR007": "operator application with unsupported operand shapes",
    "IR008": "non-injective g handled by single-assignment renaming",
    "IR009": "operator not declared commutative (GIR path requires it)",
}


@dataclass(frozen=True)
class Finding:
    """One diagnosed fact about a plan, system, or loop.

    Attributes
    ----------
    code:
        Stable identifier from :data:`FINDING_CODES`.
    severity:
        ``"info"`` / ``"warning"`` / ``"error"``.  Only errors make a
        report fail (``CheckReport.ok``).
    message:
        Human-readable statement of the specific fact found.
    where:
        Location string (``"plan round 3"``, ``"iteration 17"``,
        ``"loop 0"``); empty when the subject as a whole is meant.
    hint:
        Actionable fix suggestion; empty when none applies.
    data:
        Machine-readable extras (offending indices, counts, ...).
    """

    code: str
    severity: Severity
    message: str
    where: str = ""
    hint: str = ""
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"severity must be one of {_SEVERITIES}, got {self.severity!r}"
            )

    @property
    def title(self) -> str:
        """The code's registered one-line title."""
        return FINDING_CODES.get(self.code, "")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "where": self.where,
            "hint": self.hint,
            "data": dict(self.data),
        }

    def describe(self) -> str:
        loc = f" @ {self.where}" if self.where else ""
        hint = f"  (hint: {self.hint})" if self.hint else ""
        return f"{self.code} {self.severity}{loc}: {self.message}{hint}"


@dataclass
class CheckReport:
    """Outcome of one verification / lint pass.

    ``subject`` names what was checked (a plan fingerprint, a file, a
    system); ``checks_run`` counts the individual properties examined
    so an empty findings list is distinguishable from "nothing ran".
    """

    subject: str = ""
    findings: List[Finding] = field(default_factory=list)
    checks_run: int = 0

    # -- building ------------------------------------------------------

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def ran(self, count: int = 1) -> None:
        self.checks_run += count

    def extend(self, other: "CheckReport", *, prefix: str = "") -> None:
        """Fold another report in, optionally prefixing locations."""
        self.checks_run += other.checks_run
        for f in other.findings:
            if prefix:
                where = f"{prefix}: {f.where}" if f.where else prefix
                f = Finding(
                    code=f.code,
                    severity=f.severity,
                    message=f.message,
                    where=where,
                    hint=f.hint,
                    data=f.data,
                )
            self.findings.append(f)

    # -- reading -------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    def by_code(self, code: str) -> List[Finding]:
        return [f for f in self.findings if f.code == code]

    def codes(self) -> List[str]:
        return [f.code for f in self.findings]

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks_run": self.checks_run,
            "findings": [f.to_dict() for f in self.findings],
        }

    def describe(self) -> str:
        head = (
            f"{self.subject or 'subject'}: "
            f"{'OK' if self.ok else 'FAILED'} "
            f"({self.checks_run} check(s), {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s))"
        )
        lines = [head]
        lines.extend("  " + f.describe() for f in self.findings)
        return "\n".join(lines)


def merge_reports(
    subject: str, reports: Iterable[CheckReport]
) -> CheckReport:
    """Concatenate reports under one subject (helper for multi-part
    verifications)."""
    merged = CheckReport(subject=subject)
    for rep in reports:
        merged.extend(rep, prefix=rep.subject)
    return merged


def error(code: str, message: str, **kw: Any) -> Finding:
    """Shorthand constructors used across the checkers."""
    return Finding(code=code, severity=ERROR, message=message, **kw)


def warning(code: str, message: str, **kw: Any) -> Finding:
    return Finding(code=code, severity=WARNING, message=message, **kw)


def info(code: str, message: str, **kw: Any) -> Finding:
    return Finding(code=code, severity=INFO, message=message, **kw)
