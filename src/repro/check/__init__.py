"""repro.check: static plan/schedule race detector, precondition
prover, and loop lint.

Three layers, one currency (:class:`Finding` / :class:`CheckReport`):

* :mod:`repro.check.schedule` -- proves, without executing, that a
  solve plan's round schedule is race-free, happens-before ordered
  and trace-equivalent to the sequential semantics, and that a chain
  plan's layout folds exactly the sequential loop's operands.
* :mod:`repro.check.preconditions` -- the paper's safety
  side-conditions (g injectivity, domain bounds, acyclicity,
  commutativity, Moebius determinant edge cases) as structured
  findings.
* :mod:`repro.check.lint` -- explains why a loop fed to the
  :mod:`repro.loops` frontend did or did not parallelize.

:mod:`repro.check.mutate` is the adversarial self-test: seeded
semantics-breaking plan mutations the verifier must reject.

Entry points: ``verify_plan(plan, problem)`` for plans,
``check_system(system)`` for IR systems, ``lint_source(fn)`` for loop
code, or the ``repro check`` / ``repro lint`` CLI verbs.  See
``docs/CHECKING.md`` for the finding-code reference.
"""

from .findings import (
    CheckReport,
    FINDING_CODES,
    Finding,
    error,
    info,
    merge_reports,
    warning,
)
from .lint import lint_loop, lint_program, lint_source
from .mutate import (
    GIR_MUTATION_KINDS,
    LEVEL_MUTATION_KINDS,
    MUTATION_KINDS,
    Mutation,
    mutate_plan,
    mutation_campaign,
)
from .preconditions import (
    chain_cycle_finding,
    check_gir,
    check_moebius,
    check_ordinary,
    check_system,
    domain_finding,
    graph_cycle_finding,
    injectivity_finding,
)
from .schedule import (
    GIR_ORACLE_MAX_N,
    verify_or_raise,
    verify_ordinary_schedule,
    verify_level_layout,
    verify_plan,
)

__all__ = [
    # findings
    "Finding",
    "CheckReport",
    "FINDING_CODES",
    "error",
    "warning",
    "info",
    "merge_reports",
    # schedule verifier
    "verify_plan",
    "verify_ordinary_schedule",
    "verify_level_layout",
    "verify_or_raise",
    "GIR_ORACLE_MAX_N",
    # precondition prover
    "check_system",
    "check_ordinary",
    "check_gir",
    "check_moebius",
    "domain_finding",
    "injectivity_finding",
    "chain_cycle_finding",
    "graph_cycle_finding",
    # loop lint
    "lint_loop",
    "lint_program",
    "lint_source",
    # adversarial mutations
    "Mutation",
    "MUTATION_KINDS",
    "LEVEL_MUTATION_KINDS",
    "GIR_MUTATION_KINDS",
    "mutate_plan",
    "mutation_campaign",
]
