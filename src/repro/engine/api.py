"""The engine's public entry points: ``solve``, ``execute``,
``solve_batch``.

``solve`` is the unified front door:

1. derive the :class:`~repro.engine.problem.Problem` of the source
   object (family + index maps + flags);
2. look its fingerprint up in the plan cache -- a hit skips
   validation, predecessor construction and schedule/CAP planning;
3. dispatch to the selected backend (``python`` / ``numpy`` /
   ``pram`` / ``auto``), whose kernels replay the plan over
   the values under the engine driver (:mod:`repro.engine.driver`);
4. store a freshly built plan back into the cache.

Every solve increments ``engine.solves`` (labeled by backend and
family) in the obs metrics registry when observation is enabled; cache
lookups increment ``engine.plan.cache.{hits,misses}``.

``failover=True`` (the default) arms the backend failover ladder
(:mod:`repro.engine.failover`): a structured backend failure
(:class:`~repro.errors.FaultError`,
:class:`~repro.errors.VerificationError`) transparently re-executes
the request on the next capable backend (``numpy -> python``).
:attr:`EngineResult.backend` names the rung that actually served;
:attr:`EngineResult.failover_from` the originally chosen backend when
they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..obs import get_registry
from ..obs.recorder import record_event
from .backends import ExecutionRequest, resolve_backend
from .driver import verify
from .failover import failover_ladder, run_ladder
from .options import EngineOptions
from .plan import Plan
from .planner import PlanCache, get_plan_cache
from .problem import Problem

__all__ = ["EngineResult", "EngineOptions", "solve", "execute", "solve_batch"]


@dataclass
class EngineResult:
    """Outcome of one engine solve -- the stable result envelope shared
    by direct calls and ``repro.serve`` responses (see docs/API.md for
    the documented field list).

    ``values`` is the final array; ``stats`` the family's stats record
    (when requested); ``plan`` the plan that ran (reusable via
    ``solve(..., plan=...)`` or :func:`execute`); ``cache_hit`` whether
    it came from the plan cache; ``metrics`` a backend-specific extra
    (the PRAM :class:`~repro.pram.metrics.RunMetrics`).
    """

    values: List[Any]
    stats: Optional[object]
    backend: str
    family: str
    plan: Optional[Plan]
    cache_hit: bool = False
    metrics: Optional[object] = None
    #: The originally chosen backend when the failover ladder rerouted
    #: this solve (``backend`` then names the rung that served it).
    failover_from: Optional[str] = None
    #: Serving metadata (default-``None``/``False`` outside
    #: :mod:`repro.serve`): the request id the front end assigned or
    #: echoed, whether this solve was merged into a coalesced batch
    #: sweep, and how long it waited in the gather queue.
    request_id: Optional[str] = None
    coalesced: bool = False
    queue_wait_s: Optional[float] = None
    #: Which strategy ran: ``"chains"`` (work-efficient chain scans),
    #: ``"rounds"`` (Lemma-1 pointer jumping) or ``"traces"`` (GIR
    #: power-table evaluation); ``None`` from a backend that does not
    #: report it.  Reported, never set: the planner chooses.
    strategy: Optional[str] = None


def _cacheable(problem: Problem, policy) -> bool:
    # A GIR policy bounds the CAP loop at *planning* time, so the
    # resulting table may be truncated -- never cache those.  The
    # ordinary/moebius policies act purely at execute time.
    return problem.family != "gir" or policy is None


#: The keyword sets of :func:`solve` / :func:`execute` and
#: :func:`solve_batch`; configuration travels only as ``options=``.
_SOLVE_KWARGS = (
    "plan",
    "reuse_plan",
    "cache",
    "collect_stats",
    "f_initial",
    "allow_rename",
    "allow_ordinary_dispatch",
    "options",
)
_BATCH_KWARGS = ("plan", "reuse_plan", "cache", "f_initial_batch", "options")


def _reject_unknown(where: str, unknown, valid) -> None:
    """Uniform unknown-keyword rejection across the front doors.

    A plain ``TypeError`` from the interpreter names only the first
    bad keyword; services prefer one structured error listing both the
    offenders and the accepted set.
    """
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ValueError(
            f"{where} got unknown keyword argument(s): {names}; valid "
            f"keywords: {', '.join(valid)}"
        )


def request_for(opts: EngineOptions, problem: Problem, source, plan, **extra):
    """The :class:`ExecutionRequest` of one solve under ``opts``."""
    return ExecutionRequest(
        problem=problem,
        source=source,
        plan=plan,
        policy=opts.policy,
        checked=opts.checked,
        check_sample=opts.check_sample,
        options=dict(opts.backend_options),
        **extra,
    )


def dispatch(rungs, request: ExecutionRequest, rows=None, f_rows=None) -> EngineResult:
    """Run ``request`` -- one solve, or a batch of value ``rows`` --
    down the failover ladder ``rungs`` into an :class:`EngineResult`
    (a batch's ``values`` are its rows).  Shared by every front door
    and :class:`~repro.engine.session.Session`."""
    problem = request.problem

    def attempt(backend):
        if rows is None:
            return backend.execute(request)
        values, plan, ran = backend.execute_batch(request, rows, f_rows)
        return values, None, plan, None, ran

    if len(rungs) > 1:
        outcome, served, failover_from = run_ladder(
            rungs, problem.fingerprint(), problem.family, attempt
        )
    else:
        outcome, served, failover_from = attempt(rungs[0]), rungs[0], None
    values, stats, plan, metrics, ran = outcome
    return EngineResult(
        values=values,
        stats=stats,
        backend=served.name,
        family=problem.family,
        plan=plan,
        metrics=metrics,
        failover_from=failover_from,
        strategy=ran,
    )


def _front_door(
    where: str,
    source: Any,
    options: Any,
    *,
    plan: Optional[Plan],
    reuse_plan: bool,
    cache: Optional[PlanCache],
    rows=None,
    f_rows=None,
    allow_rename: bool = True,
    allow_ordinary_dispatch: bool = True,
    **extra: Any,
) -> EngineResult:
    """Problem -> backend -> plan cache -> failover ladder, shared by
    :func:`solve` and :func:`solve_batch` (``rows``)."""
    opts = EngineOptions.from_value(options, where=where)
    problem = Problem.from_system(
        source,
        allow_rename=allow_rename,
        allow_ordinary_dispatch=allow_ordinary_dispatch,
    )
    chosen = resolve_backend(opts.backend, problem, opts.backend_options)
    batch = rows is not None
    if batch and not chosen.capabilities.batch:
        raise ValueError(
            f"backend {chosen.name!r} does not support batched execution"
        )
    if opts.verify_plan:
        verify(source, problem, plan, stage="pre", preconditions=True)

    cache_hit = False
    consulted = False
    store = cache if cache is not None else get_plan_cache()
    if (
        plan is None
        and reuse_plan
        and chosen.name != "pram"  # the PRAM machine does not plan
        and _cacheable(problem, opts.policy)
    ):
        consulted = True
        plan = store.get(problem.fingerprint(), family=problem.family)
        cache_hit = plan is not None
        if opts.verify_plan and cache_hit:
            verify(source, problem, plan, stage="cache")

    record_event(
        "solve.start",
        family=problem.family,
        backend=chosen.name,
        n=problem.m,
        cache_hit=cache_hit,
    )
    rungs = (
        failover_ladder(chosen, problem, batch=batch)
        if opts.failover
        else [chosen]
    )
    result = dispatch(
        rungs, request_for(opts, problem, source, plan, **extra), rows, f_rows
    )
    record_event("solve.end", family=problem.family, backend=result.backend)
    built = result.plan
    if opts.verify_plan and built is not None and built is not plan:
        # Freshly built this solve (GIR plans only materialize inside
        # execute): verify post-hoc so a bad plan cannot be cached or
        # reused even though this execution already consumed it.
        verify(source, problem, built, stage="post")
    if consulted and not cache_hit and built is not None:
        store.put(problem.fingerprint(), built)

    registry = get_registry()
    if registry is not None:
        registry.counter(
            "engine.solves", backend=result.backend, family=problem.family
        ).inc(len(rows) if batch else 1)
        if batch:
            registry.counter("engine.batch.solves", backend=result.backend).inc()
    result.cache_hit = cache_hit
    return result


def solve(
    source: Any,
    *,
    plan: Optional[Plan] = None,
    reuse_plan: bool = True,
    cache: Optional[PlanCache] = None,
    collect_stats: bool = False,
    f_initial: Optional[List[Any]] = None,
    allow_rename: bool = True,
    allow_ordinary_dispatch: bool = True,
    options: Any = None,
    **unknown: Any,
) -> EngineResult:
    """Solve any supported source object through the engine.

    ``source`` is an :class:`~repro.core.equations.OrdinaryIRSystem`,
    :class:`~repro.core.equations.GIRSystem` or
    :class:`~repro.core.moebius.RationalRecurrence`.  ``options``
    is the unified configuration record -- an
    :class:`~repro.engine.options.EngineOptions` (or a plain dict of
    backend extras: Moebius ``path`` / ``guard``, PRAM ``processors`` /
    ``fault_plan``, ...; a key the backend does not read raises
    :class:`ValueError`).  ``plan`` runs a caller-held plan directly;
    otherwise ``reuse_plan=True`` (default) consults the plan cache.
    A round budget is a policy:
    ``EngineOptions(policy=SolvePolicy(max_rounds=r,
    on_exhaustion="partial"))`` returns the state after ``r`` rounds on
    every backend.

    ``EngineOptions.verify_plan`` opts into the :mod:`repro.check`
    static analyzer: the source system's preconditions are proved
    first, and the solve plan (caller-held, cached, or freshly built)
    is verified race-free and trace-equivalent -- before execution when
    the plan is already at hand, after planning otherwise.  Error
    findings raise :class:`~repro.errors.PlanVerificationError` (exit
    code 8).

    ``EngineOptions.failover=False`` disables the backend failover
    ladder: backend faults raise instead of re-executing on the next
    capable backend (the mode for tests and callers that must see the
    raw failure).
    """
    _reject_unknown("solve()", unknown, _SOLVE_KWARGS)
    return _front_door(
        "solve()",
        source,
        options,
        plan=plan,
        reuse_plan=reuse_plan,
        cache=cache,
        allow_rename=allow_rename,
        allow_ordinary_dispatch=allow_ordinary_dispatch,
        collect_stats=collect_stats,
        f_initial=f_initial,
    )


def execute(plan: Plan, source: Any, **kwargs) -> EngineResult:
    """Run a caller-held plan over ``source``'s values.

    Equivalent to ``solve(source, plan=plan, ...)``; the plan must
    have been built for the same index maps (same fingerprint) --
    :func:`solve` with ``reuse_plan=True`` manages this automatically,
    ``execute`` trusts the caller for the hot serving path.  Accepts
    the same keywords as :func:`solve` (except ``plan``, which is
    positional here).
    """
    valid = tuple(k for k in _SOLVE_KWARGS if k != "plan")
    _reject_unknown(
        "execute()", {k: v for k, v in kwargs.items() if k not in valid}, valid
    )
    return solve(source, plan=plan, **kwargs)


def solve_batch(
    source: Any,
    batch_initial: Sequence[Sequence[Any]],
    *,
    plan: Optional[Plan] = None,
    reuse_plan: bool = True,
    cache: Optional[PlanCache] = None,
    f_initial_batch: Optional[Sequence[Sequence[Any]]] = None,
    options: Any = None,
    **unknown: Any,
) -> List[List[Any]]:
    """Solve ``k`` instances sharing ``source``'s index maps and
    operator, one per row of ``batch_initial``.

    The NumPy backend runs ordinary operators as one stacked ``(k, n)``
    sweep and stackable Moebius affine recurrences as one ``(k, n)``
    coefficient sweep through one planned replay; other recurrences
    replay the shared plan per row.  ``options`` is the unified
    :class:`~repro.engine.options.EngineOptions` record; its ``policy``
    / ``checked`` carry the standard budget and differential-
    verification semantics into the batch, and ``failover`` mirrors
    :func:`solve` (batch-capable rungs only).  Returns the ``k`` final
    arrays.
    """
    _reject_unknown("solve_batch()", unknown, _BATCH_KWARGS)
    return _front_door(
        "solve_batch()",
        source,
        options,
        plan=plan,
        reuse_plan=reuse_plan,
        cache=cache,
        rows=batch_initial,
        f_rows=f_initial_batch,
    ).values
