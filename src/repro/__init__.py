"""repro -- Parallel Solutions of Indexed Recurrence Equations.

A full reproduction of Ben-Asher & Haber (IPPS 1997): indexed
recurrence (IR) equations ``A[g(i)] := op(A[f(i)], A[h(i)])``, their
O(log n) parallel solvers (OrdinaryIR pointer jumping, the Moebius
reduction for affine/rational recurrences, the CAP path-counting GIR
solver), a PRAM simulator standing in for the paper's SimParC, a
loop-AST front end that parallelizes sequential loops with no
dependence analysis, and the Livermore Loops suite the paper's census
analyzes.

Quick start::

    from repro import OrdinaryIRSystem, CONCAT, solve

    sys_ = OrdinaryIRSystem.build(
        initial=[("a",), ("b",), ("c",), ("d",)],
        g=[1, 2, 3],
        f=[0, 1, 2],
        op=CONCAT,
    )
    result = solve(sys_, collect_stats=True)
    final, stats = result.values, result.stats

:func:`repro.engine.solve` is the unified entry point: it plans the
solve (trace lists, round schedules, CAP counts -- everything
derivable from the index maps alone), caches the plan by fingerprint,
and dispatches to a registered backend (``python``, ``numpy``,
``pram``, or ``auto``).  For repeated solves over one
problem, :class:`repro.engine.Session` pins the plan and backend once
and serves value vectors with no per-request planning.

The deprecated per-family wrappers (``solve_ordinary``,
``solve_gir``, ``solve_moebius``, ``solve_ordinary_numpy``, ...) are
gone (root re-exports dropped in 1.1.0, the :mod:`repro.core` shims
in 1.2.0); docs/API.md has the migration table.

Subpackages: :mod:`repro.core` (algorithms), :mod:`repro.engine`
(Problem -> Plan -> Executor pipeline + backend registry; see
``docs/ARCHITECTURE.md``), :mod:`repro.pram` (simulator),
:mod:`repro.loops` (front end), :mod:`repro.livermore`
(benchmark suite), :mod:`repro.analysis` (models and reports),
:mod:`repro.obs` (tracing + metrics; see ``docs/OBSERVABILITY.md``),
:mod:`repro.resilience` (numeric guards, fault injection, solve
policies; see ``docs/RESILIENCE.md``), :mod:`repro.check` (static
plan/schedule verifier, precondition prover and loop lint; see
``docs/CHECKING.md``) with the failure taxonomy in
:mod:`repro.errors`.
"""

from . import (
    analysis,
    check,
    core,
    engine,
    errors,
    livermore,
    loops,
    obs,
    pram,
    resilience,
)
from .core import (
    ADD,
    CONCAT,
    FLOAT_ADD,
    FLOAT_MUL,
    MAX,
    MIN,
    MUL,
    AffineRecurrence,
    GIRSystem,
    IRClass,
    IRValidationError,
    Mat2,
    Operator,
    OperatorError,
    OrdinaryIRSystem,
    RationalRecurrence,
    SolveStats,
    make_operator,
    modular_add,
    modular_mul,
    normalize_non_distinct,
    run_gir,
    run_moebius_sequential,
    run_ordinary,
)
from .engine import (
    EngineResult,
    Problem,
    Session,
    available_backends,
    execute,
    register_backend,
    solve,
    solve_batch,
)
from .errors import (
    CyclicDependenceError,
    FaultError,
    NumericHealthError,
    PolicyError,
    ReproError,
    UnrecoverableFaultError,
    VerificationError,
    exit_code_for,
)
from .loops import Loop, parallelize, recognize
from .pram import PRAM, AccessPolicy, profile_ordinary
from .resilience import (
    FaultEvent,
    FaultPlan,
    NumericGuard,
    SolvePolicy,
    default_guard,
)

__version__ = "1.2.0"

__all__ = [
    # subpackages
    "analysis",
    "check",
    "core",
    "engine",
    "errors",
    "livermore",
    "loops",
    "obs",
    "pram",
    "resilience",
    # operators + core model
    "ADD",
    "CONCAT",
    "FLOAT_ADD",
    "FLOAT_MUL",
    "MAX",
    "MIN",
    "MUL",
    "AffineRecurrence",
    "GIRSystem",
    "IRClass",
    "IRValidationError",
    "Mat2",
    "Operator",
    "OperatorError",
    "OrdinaryIRSystem",
    "RationalRecurrence",
    "SolveStats",
    "make_operator",
    "modular_add",
    "modular_mul",
    "normalize_non_distinct",
    "run_gir",
    "run_moebius_sequential",
    "run_ordinary",
    # engine
    "EngineResult",
    "Problem",
    "Session",
    "available_backends",
    "execute",
    "register_backend",
    "solve",
    "solve_batch",
    # errors
    "CyclicDependenceError",
    "FaultError",
    "NumericHealthError",
    "PolicyError",
    "ReproError",
    "UnrecoverableFaultError",
    "VerificationError",
    "exit_code_for",
    # loops
    "Loop",
    "parallelize",
    "recognize",
    # pram
    "PRAM",
    "AccessPolicy",
    "profile_ordinary",
    # resilience
    "FaultEvent",
    "FaultPlan",
    "NumericGuard",
    "SolvePolicy",
    "default_guard",
    # meta
    "__version__",
]
