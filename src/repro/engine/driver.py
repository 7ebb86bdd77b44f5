"""The engine driver: one owner for everything around the value kernels.

The paper's algorithms are one plan -- an ordinary plan's layout or
the pointer-jumping rounds its ``pred`` gives, or a GIR plan's levels
or power table -- replayed over different value representations.  Backends
therefore supply only *kernels* (a name-keyed table, see
:class:`~repro.engine.backends.KernelBackend`):

* round kernels -- ``ordinary`` (:mod:`~repro.engine.exec_ordinary`:
  pure Python, NumPy) and the Moebius paths ``object`` (the ordinary
  kernel under the ``odot`` operator), ``affine`` and ``rational``
  (:mod:`~repro.engine.exec_moebius`);
* layout kernels -- ``levels`` and ``affine_levels`` /
  ``rational_levels`` (NumPy), run instead of ``ordinary``,
  ``affine`` and an ``auto`` solve's ``rational`` on a chain or level
  plan whenever no round budget asks for rounds and the operator is a
  typed ufunc (a Moebius kernel also needs every scalar as float64,
  and only the affine one scans runs); they report the plan's
  strategy, ``chains`` or ``levels``;
* trace evaluators -- ``gir`` (:mod:`~repro.engine.exec_gir`): the
  level sweeps on a level plan (every backend), else power-table
  evaluation.

This module owns, once, what every backend used to repeat: building a
missing plan; value admission (:func:`~repro.engine.exec_ordinary.
admit`: typed arrays, lossy casts rejected); the
:class:`~repro.resilience.SolvePolicy` decision
(per-round ``admit``, ``raise`` / ``fallback`` / ``partial``, the
sequential-baseline fallback); ``checked=`` differential verification;
:class:`~repro.core.ordinary.SolveStats` /
:class:`~repro.core.gir.GIRSolveStats` assembly; the ``solver.*``
spans and counters; the Moebius guard's degradation ladder; and the
scatter of solved values back onto cells.  Single solves and stacked
``(k, n)`` batches share the one round loop, :func:`_replay`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional

import numpy as np

from ..core.gir import GIRSolveStats
from ..core.moebius import (
    _as_exact,
    _exact_to_float,
    moebius_ir_operator,
    run_moebius_sequential,
)
from ..core.ordinary import SolveStats, _sequential_baseline
from ..core.sequential import run_gir
from ..obs import get_registry, get_tracer, maybe_span
from ..obs.recorder import record_event
from ..resilience.verify import differential_check
from . import exec_gir, exec_moebius, exec_ordinary
from .exec_ordinary import admit
from .plan import GIRPlan

__all__ = [
    "Job",
    "admit",
    "as_values",
    "solve",
    "solve_batch",
    "check",
    "strategy",
    "verify",
]


@dataclass
class Job:
    """What a kernel reads for one solve."""

    #: the OrdinaryPlan a round kernel replays / the GIRPlan a trace
    #: evaluator reads
    sched: Any
    source: Any
    op: Any = None
    #: the initial values -- one ``(m,)`` vector, or ``k`` rows when
    #: ``stacked`` is set (one sweep over a batch)
    init: Any = None
    finit: Any = None
    stacked: bool = False
    guard: Any = None
    options: Mapping[str, Any] = field(default_factory=dict)
    policy: Any = None
    #: ``init`` / ``finit`` admitted as the operator's typed arrays
    #: (``None``: no typed form, or not a typed operator)
    typed: Any = None
    ftyped: Any = None
    #: a Moebius recurrence's scalars as float64 columns, classified
    #: once per solve (see :func:`repro.engine.exec_moebius.resolve_mode`;
    #: a stacked batch's by :func:`~repro.engine.exec_moebius.stack_affine`)
    scalars: Any = None


def as_values(values) -> Any:
    """``values`` as a system's ``initial``: a list or ndarray passes
    through uncopied (the engine never writes into either), any other
    sequence becomes a list."""
    return values if isinstance(values, (list, np.ndarray)) else list(values)


def _sequential(family: str, source, f_initial=None) -> List[Any]:
    """The paper's sequential loop: the policy's fallback rung and the
    guard ladder's last rung."""
    if family == "moebius":
        return run_moebius_sequential(source)
    if family == "gir":
        return run_gir(source)
    return _sequential_baseline(source, f_initial)


def check(family: str, source, out, f_initial, sample: Optional[int]) -> None:
    """``checked=``: differentially verify ``out`` against the oracle."""
    differential_check(family, source, out, sample=sample, f_initial=f_initial)


def verify(source, problem, plan=None, *, stage: str, preconditions: bool = False):
    """The ``verify_plan=True`` opt-in, one seam for every front door
    and :class:`~repro.engine.session.Session`: with ``preconditions``,
    prove the paper's side-conditions on ``source`` first; then, given
    a ``plan``, run the :mod:`repro.check` schedule verifier over it
    against ``source`` (every family: a level plan's reads are proved
    against the system's maps, LVL004).
    Error findings raise :class:`~repro.errors.PlanVerificationError`;
    ``check.preconditions`` / ``check.plan.verifications`` count each
    outcome.  Returns the plan's report (``None`` without a plan)."""
    from ..check.preconditions import check_system
    from ..check.schedule import verify_or_raise
    from ..errors import PlanVerificationError

    registry = get_registry()
    family = problem.family
    if preconditions:
        report = check_system(source)
        if registry is not None:
            registry.counter(
                "check.preconditions",
                family=family,
                outcome="accepted" if report.ok else "rejected",
            ).inc()
        if not report.ok:
            first = report.errors[0]
            raise PlanVerificationError(
                f"precondition check failed: {first.describe()} "
                f"({len(report.errors)} error finding(s))",
                report=report,
            )
    if plan is None:
        return None
    try:
        report = verify_or_raise(plan, problem, system=source)
    except Exception:
        if registry is not None:
            registry.counter(
                "check.plan.verifications", family=family, outcome="rejected"
            ).inc()
        record_event("check.plan.rejected", family=family, stage=stage)
        raise
    if registry is not None:
        registry.counter(
            "check.plan.verifications", family=family, outcome="accepted"
        ).inc()
    record_event(
        "check.plan.verified", family=family, stage=stage, checks=report.checks_run
    )
    return report


def _stats(plan, active: List[int]):
    """The family's stats record for a solve that ran ``active`` (GIR:
    what its plan's layout runs)."""
    if isinstance(plan, GIRPlan):
        if plan.levels is not None:  # one op per iteration, one sweep per level
            return GIRSolveStats(
                n=plan.n,
                cap_iterations=0,
                cap_edge_work=0,
                combine_ops=plan.n,
                reduction_depth=plan.levels.levels,
                renamed=plan.renamed,
            )
        if plan.dispatch is not None:
            inner = _stats(plan.dispatch, active)
            return GIRSolveStats(
                n=plan.n,
                cap_iterations=0,
                cap_edge_work=0,
                power_ops=0,
                combine_ops=inner.total_ops,
                reduction_depth=inner.depth,
                renamed=False,
                ordinary_dispatch=True,
            )
        table = plan.table
        return GIRSolveStats(
            n=table.rows,
            cap_iterations=plan.cap_iterations,
            cap_edge_work=plan.cap_edge_work,
            power_ops=table.power_entry_count,
            combine_ops=table.nnz - table.rows,
            reduction_depth=table.reduction_depth,
            renamed=plan.renamed,
        )
    sched = _schedule(plan)
    return SolveStats(
        n=sched.n,
        rounds=len(active),
        active_per_round=list(active),
        init_ops=sched.init_ops,
    )


def _replay(family: str, make, job: Job, enforcer, label: str, ran: str):
    """The one round loop: build ``make``'s kernel and replay the
    admitted prefix of the schedule under a root span carrying the
    strategy ``ran``.  Returns ``(kernel, active cells per executed
    round)``.

    A round is one pointer-jumping round, or one level of a layout
    kernel.  Single solves get a ``solver.round`` span and round
    counters per round; a stacked batch reports only its root span, so
    the per-round series keep counting one solve's rounds.
    """
    tracer, registry = get_tracer(), get_registry()
    sched = job.sched
    active: List[int] = []
    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow saturates to +/-inf, matching the Python-float
        # semantics of the sequential loop.
        kernel = make(job)
        attrs = dict(getattr(kernel, "attrs", {}))
        if job.stacked:
            attrs["batch"] = len(job.init)
        with maybe_span(
            tracer, f"solver.{family}", engine=label, n=sched.n, strategy=ran, **attrs
        ) as root:
            for idx, src in kernel.steps:
                if enforcer is not None and not enforcer.admit():
                    break
                count = len(idx)
                if job.stacked:
                    kernel.round(idx, src)
                else:
                    with maybe_span(
                        tracer,
                        "solver.round",
                        engine=label,
                        round=len(active),
                        active=count,
                    ):
                        kernel.round(idx, src)
                    if registry is not None:
                        registry.counter("solver.rounds", engine=label).inc()
                        registry.histogram(
                            "solver.active_cells", engine=label
                        ).observe(count)
                active.append(count)
            if root is not None:
                root.set_attribute("rounds", len(active))
    if registry is not None:
        registry.counter("solver.solves", engine=label).inc()
        if not job.stacked:
            registry.counter("solver.init_ops", engine=label).inc(
                sched.init_ops
            )
    return kernel, active


def _object(make, job: Job, enforcer, label: str, ran: str):
    """The Moebius object path: ``Mat2`` coefficients solved as an
    OrdinaryIR system under ``odot`` by the backend's ordinary kernel,
    then evaluated.  Returns ``(per-iteration values, active)``."""
    tracer, registry = get_tracer(), get_registry()
    rec = job.source
    values = None
    with maybe_span(tracer, "solver.moebius", engine=label, n=rec.n, strategy=ran):
        with maybe_span(tracer, "moebius.coefficients"):
            coeff, const = exec_moebius.object_inputs(rec)
        inner = dataclasses.replace(
            job, op=moebius_ir_operator(job.guard), init=coeff, finit=const
        )
        with maybe_span(tracer, "moebius.ir_solve"):
            kernel, active = _replay("ordinary", make, inner, enforcer, label, ran)
        if enforcer is None or not enforcer.should_fallback:
            with maybe_span(tracer, "moebius.evaluate"):
                solved = kernel.solved()
                if isinstance(solved, np.ndarray):
                    solved = solved.tolist()
                values = exec_moebius.evaluate_object(rec, rec.g, solved)
        if registry is not None:
            registry.counter("solver.solves", engine="moebius").inc()
    return values, active


def _traces(make, job: Job, problem, label: str):
    """GIR evaluation, planning first when no plan is held.  Returns
    ``(row values, the initial array they scatter onto or None, plan,
    strategy)``: the strategy is ``levels`` on a level plan, else
    ``traces``."""
    tracer, registry = get_tracer(), get_registry()
    system = job.source
    system.op.require_commutative()
    kernel = make(job)
    with maybe_span(tracer, "solver.gir", engine=label, n=system.n) as root:
        if job.sched is None:
            job.sched = exec_gir.build_plan(system, problem, policy=job.policy)
        exec_gir.check_period(job.sched, system.op)
        plan = job.sched
        ran = plan.strategy
        with maybe_span(tracer, "gir.evaluate") as esp:
            values, base, mode = kernel.evaluate()
            if ran == "levels":
                power_ops = combine_ops = 0  # no power table
                attrs = {"levels": plan.levels.levels}
            else:
                table = plan.table
                power_ops = table.power_entry_count
                combine_ops = table.nnz - table.rows
                attrs = {"power_ops": power_ops, "combine_ops": combine_ops}
            if esp is not None:
                for key, value in attrs.items():
                    esp.set_attribute(key, value)
                esp.set_attribute("mode", mode)
        if root is not None:
            root.set_attribute("strategy", ran)
            root.set_attribute("cap_iterations", plan.cap_iterations)
            root.set_attribute("renamed", plan.renamed)
        if registry is not None:
            registry.counter("solver.solves", engine="gir").inc()
            registry.counter("gir.power_ops").inc(power_ops)
            registry.counter("gir.combine_ops").inc(combine_ops)
    return values, base, plan, ran


def _schedule(plan):
    """The OrdinaryPlan a plan's kernels replay."""
    return plan.dispatch if isinstance(plan, GIRPlan) else plan


def _scatter(plan, source, initials, solved, base, batch: bool) -> List[List[Any]]:
    """Place each row's solved values -- in iteration order -- onto its
    initial array, at the system's ``g``.

    ``base`` -- the typed ``(m,)`` vector or ``(k, m)`` batch a kernel
    ran on, a fresh array admission made -- takes them in place, then
    one ``tolist``, so untouched cells come back in the operator's
    dtype; a kernel that solved in ``base`` hands back ``base`` itself.
    Object values (``base`` is ``None``) take the per-cell loop.  GIR:
    see :func:`_scatter_traces`."""
    if isinstance(plan, GIRPlan) and plan.dispatch is None:
        return [_scatter_traces(plan, source, solved, base)]
    g = source.g
    if base is not None:
        if solved is not base:  # a kernel that swept in place is done
            base[..., g] = solved
        return base.tolist() if batch else [base.tolist()]
    if isinstance(solved, np.ndarray):
        solved = solved.tolist()  # a stacked (k, n) batch: k rows
    cells = g.tolist()
    outs = []
    for initial, vals in zip(initials, solved if batch else [solved]):
        out = list(initial)
        for i, cell in enumerate(cells):
            out[cell] = vals[i]
        outs.append(out)
    return outs


def _scatter_traces(plan: GIRPlan, system, values, base) -> List[Any]:
    """Trace rows land where their iterations write: at the system's
    ``g``, or -- on a renamed plan -- at the version cells ``m + i``
    that :func:`~repro.core.equations.normalize_non_distinct` numbers,
    appended to the initial array and projected back onto the original
    cells.  ``base`` is the initial array the kernel read (typed or
    object), else ``None``."""
    if base is not None:
        if plan.renamed:
            work = np.concatenate([base, np.asarray(values, dtype=base.dtype)])
            return work[plan.final_cell_of].tolist()
        work = base.copy()
        work[system.g] = values
        return work.tolist()
    if plan.renamed:
        out = list(system.initial) + list(values)
        return [out[c] for c in plan.final_cell_of.tolist()]
    out = list(system.initial)
    for cell, value in zip(system.g.tolist(), values):
        out[cell] = value
    return out


def _guard_report(guard, solved, label: str):
    """The guard's health scan of rung 1's per-iteration values: one
    ``np.isnan`` / ``np.isinf`` pass over a float array, the per-value
    walk otherwise (exact object values)."""
    where = f"moebius.{label}"
    if isinstance(solved, np.ndarray) and solved.dtype.kind == "f":
        return guard.check_array(solved, where=where)
    return guard.check_values(solved, where=where)


def _escalate(request, plan, X, report, stats, guard, label: str):
    """The Moebius guard's degradation ladder above the path that ran.

    Rung 1 produced ``X`` (``report`` is its health scan); if the guard
    finds it unhealthy, rung 2
    re-solves with exact ``Fraction`` arithmetic on the numpy object
    path (possible iff every input scalar is finite) -- reusing the
    plan, since the maps are unchanged -- and rung 3 falls back to the
    sequential loop, which *defines* the recurrence's semantics.
    """
    from .backends import get_backend

    rec = request.source
    if report.healthy:
        return X, stats
    tracer = get_tracer()
    guard.record_trip(kind="nan" if report.nan_count else "inf", engine=label)
    exact = _as_exact(rec)
    if exact is not None:
        guard.record_escalation(source=label, target="exact")
        exact_request = dataclasses.replace(
            request,
            source=exact,
            plan=plan,
            checked=False,
            options={"path": "object", "guard": None},
            coefficients=None,
        )
        try:
            with maybe_span(
                tracer, "resilience.escalate", source=label, target="exact"
            ):
                (Xe,), stats, _, _ = solve(get_backend("numpy"), exact_request)
            return [_exact_to_float(v) for v in Xe], stats
        except ZeroDivisionError:
            # a genuine pole (0/0 or x/0): only float semantics can
            # express the result; fall through to the baseline
            pass
    guard.record_escalation(source=label, target="sequential")
    with maybe_span(tracer, "resilience.escalate", source=label, target="sequential"):
        return _sequential("moebius", rec), stats


def build_plan(source, problem, policy=None):
    """Plan ``source`` (GIR: under ``policy``, which bounds CAP)."""
    if problem.family == "gir":
        return exec_gir.build_plan(source, problem, policy=policy)
    if problem.family == "moebius":
        return exec_moebius.build_plan(source, problem.fingerprint())
    return exec_ordinary.build_plan(source, problem.fingerprint())


#: The layout kernel kind that replaces a round kernel kind on a chain
#: or level plan.
_LEVEL_SWEEPS = {
    "ordinary": "levels",
    "affine": "affine_levels",
    "rational": "rational_levels",
}


def strategy(kind: str, sched) -> str:
    """The strategy a kernel kind runs on ``sched``: its layout's
    (``chains`` or ``levels``) for a layout kernel, ``traces`` for GIR
    evaluation (the solve reports ``levels`` instead when the GIR level
    sweeps ran), else ``rounds`` (pointer jumping)."""
    if kind in _LEVEL_SWEEPS.values():
        return sched.strategy
    return "traces" if kind == "gir" else "rounds"


def _layout_kind(kind: str, sched, op, policy, path: str, scalars) -> Optional[str]:
    """The layout kernel that replaces round kernel ``kind`` on
    ``sched``'s chain or level layout, or ``None``.  None runs under a
    round budget or a non-ufunc operator.  A Moebius kernel evaluates
    the loop's formula over float64 columns, so it needs all of them;
    it serves the affine path however chosen, and an ``auto`` solve's
    rational one on one-iteration segments alone (an explicit
    ``rational`` path, or runs, keep their rounds)."""
    if kind not in _LEVEL_SWEEPS or not exec_ordinary.layout_applies(op, policy):
        return None
    if sched.levels is None:
        return None
    if kind != "ordinary" and (
        scalars is None
        or not scalars.complete
        or (kind == "rational" and (path != "auto" or sched.strategy == "chains"))
    ):
        return None
    return _LEVEL_SWEEPS[kind]


def solve(backend, request, rows=None, f_rows=None, scalars=None):
    """Run ``request`` on ``backend``'s kernels -- or, given ``rows``,
    one stacked sweep over ``k`` value rows sharing its maps (a Moebius
    batch passes their ``scalars``, see :func:`solve_batch`).

    Returns ``(outputs, stats, plan, strategy)``: one output array per
    row, stats only for a single solve that asked for them, and the
    :func:`strategy` that ran.
    """
    problem, source, policy = request.problem, request.source, request.policy
    family = problem.family
    options = {**backend.defaults, **request.options}
    batch = rows is not None
    plan = request.plan
    guard = None
    if family == "moebius":
        if batch:
            kind = "affine"
        else:
            kind, guard, scalars = exec_moebius.resolve_mode(
                source, options, request.coefficients
            )
    elif family == "gir" and not exec_gir.dispatches(source, problem, plan):
        kind = "gir"
    else:
        kind = "ordinary"
    if plan is None and kind != "gir":
        plan = build_plan(source, problem)
    op = getattr(source, "op", None)
    sweep = _layout_kind(
        kind, _schedule(plan), op, policy, options.get("path", "auto"), scalars
    )
    if sweep in backend.kernels:
        kind = sweep
    make = backend.kernels.get(kind)
    if make is None:
        raise ValueError(
            f"the {backend.name} backend has no {kind!r} kernel (it runs: "
            f"{', '.join(sorted(backend.kernels))}) -- use backend='numpy' "
            "or backend='python' instead"
        )
    if batch:
        init, f_init, initials = rows, f_rows, rows
        f_inits = [None] * len(rows) if f_rows is None else f_rows
    else:
        init, f_init = source.initial, request.f_initial
        initials, f_inits = [init], [f_init]
    typed = ftyped = top = None
    if family != "moebius" and op is not None and op.dtype is not None:
        typed, top = exec_ordinary.admit_top(init, op)
        if f_init is not None:
            ftyped, ftop = exec_ordinary.admit_top(f_init, op)
            top = None if top is None or ftop is None else max(top, ftop)
    if (
        kind in ("ordinary", "levels")
        and make is not exec_ordinary.PythonRounds
        and exec_ordinary.may_wrap(
            op, _schedule(plan).trace_bound, typed, ftyped, top
        )
    ):
        # The integer result could wrap: run the object-dtype rounds
        # over Python ints instead, exact like the sequential loop.
        kind, make = "ordinary", exec_ordinary.NumpyRounds
        op = dataclasses.replace(op, vector_fn=None, dtype=None)
        init = typed.tolist()
        f_init = None if ftyped is None else ftyped.tolist()
        initials = init if batch else [init]
        if f_init is not None:
            f_inits = f_init if batch else [f_init]
        typed = ftyped = None
    ran = strategy(kind, _schedule(plan))
    label = make.label + (".batch" if batch else "")
    enforcer = policy.enforcer(f"{family}.{label}") if policy is not None else None
    job = Job(
        sched=plan if kind == "gir" else _schedule(plan),
        source=source,
        op=op,
        init=init,
        finit=init if f_init is None else f_init,
        stacked=batch,
        guard=guard,
        options=options,
        policy=policy,
        typed=typed,
        ftyped=ftyped,
        scalars=scalars,
    )
    base = None
    active: List[int] = []
    if kind == "gir":
        solved, base, plan, ran = _traces(make, job, problem, label)
    elif kind == "object":
        solved, active = _object(make, job, enforcer, label, ran)
    else:
        span = "moebius" if family == "moebius" else "ordinary"
        kernel, active = _replay(span, make, job, enforcer, label, ran)
        solved, base = kernel.solved(), getattr(kernel, "base", None)
    stats = _stats(plan, active) if request.collect_stats else None

    def instance(r):
        if not batch:
            return source
        return dataclasses.replace(source, initial=as_values(rows[r]))

    report = None
    if enforcer is not None and enforcer.should_fallback:
        outs = [
            _sequential(family, instance(r), f_inits[r])
            for r in range(len(initials))
        ]
    else:
        if guard is not None:
            report = _guard_report(guard, solved, label)
        outs = _scatter(plan, source, initials, solved, base, batch)
    if guard is not None:
        if report is None:  # the policy's sequential fallback ran
            X = outs[0]
            report = _guard_report(guard, [X[c] for c in source.g.tolist()], label)
        outs[0], stats = _escalate(
            request, plan, outs[0], report, stats, guard, label
        )
    if request.checked and not (enforcer is not None and enforcer.is_partial):
        for r, out in enumerate(outs):
            check(family, instance(r), out, f_inits[r], request.check_sample)
    return outs, stats, plan, ran


def solve_batch(backend, request, rows, f_rows=None):
    """Solve ``k`` value rows sharing ``request``'s maps and operator.

    Ordinary systems and stackable affine recurrences run as one
    stacked sweep (:func:`solve` with ``rows``); anything else replays
    the shared plan per row, every row drawing on ONE cumulative
    policy budget -- a batch cannot stretch a ``t``-second budget into
    ``k * t`` seconds.  Returns ``(outputs, plan, strategy)``.
    """
    from ..resilience import policy as policy_mod

    problem, source, policy = request.problem, request.source, request.policy
    if f_rows is not None and problem.family != "ordinary":
        raise ValueError(
            f"f_initial_batch does not apply to the {problem.family} family"
        )
    if len(rows) == 0:
        return [], request.plan, None
    path = {**backend.defaults, **request.options}.get("path", "auto")
    scalars = None
    if (
        problem.family == "moebius"
        and policy is None
        and path in ("auto", "affine")
        and "affine" in backend.kernels
    ):
        scalars = exec_moebius.stack_affine(source, rows, request.coefficients)
    if problem.family == "ordinary" or scalars is not None:
        outs, _stats, plan, ran = solve(backend, request, rows, f_rows, scalars)
        return outs, plan, ran
    t0 = policy_mod.budget_clock() if policy is not None else 0.0
    plan, ran = request.plan, None
    outs = []
    for row in rows:
        row_request = dataclasses.replace(
            request,
            source=dataclasses.replace(source, initial=as_values(row)),
            plan=plan,
            policy=None if policy is None else policy.with_remaining(t0),
        )
        (out,), _stats, plan, ran = solve(backend, row_request)
        outs.append(out)
    return outs, plan, ran
