"""The engine driver: one owner for everything around the value kernels.

The paper's algorithms are one schedule -- the Lemma-1 pointer-jumping
rounds of an :class:`~repro.engine.plan.OrdinaryPlan`, or a GIR power
table -- replayed over different value representations.  Backends
therefore supply only *kernels* (a name-keyed table, see
:class:`~repro.engine.backends.KernelBackend`):

* round kernels -- ``ordinary`` (:mod:`~repro.engine.exec_ordinary`:
  pure Python, NumPy) and ``chains`` (NumPy's work-efficient chain
  scan, run instead of ``ordinary`` on a chain plan whenever the
  operator is a typed ufunc and no round budget asks for rounds), the
  Moebius paths ``object`` (the ordinary
  kernel under the ``odot`` operator), ``affine`` and ``rational``
  (:mod:`~repro.engine.exec_moebius`);
* trace evaluators -- ``gir`` (:mod:`~repro.engine.exec_gir`).

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
from ..resilience.verify import differential_check
from . import exec_gir, exec_moebius, exec_ordinary
from .exec_ordinary import admit
from .plan import GIRPlan

__all__ = ["Job", "admit", "solve", "solve_batch", "check", "strategy"]


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
    #: once per solve (see :func:`repro.engine.exec_moebius.resolve_mode`)
    scalars: Any = None


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


def _stats(plan, active: List[int]):
    """The family's stats record for a solve that ran ``active``."""
    if isinstance(plan, GIRPlan):
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

    A round is one pointer-jumping round, or one chain level of a
    chain kernel.  Single solves get a ``solver.round`` span and round
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
                values = exec_moebius.evaluate_object(rec, job.sched.g, solved)
        if registry is not None:
            registry.counter("solver.solves", engine="moebius").inc()
    return values, active


def _traces(make, job: Job, problem, label: str, ran: str):
    """GIR trace evaluation, planning the CAP pipeline first when no
    plan is held.  Returns ``(row values, typed initial array or None,
    plan)``."""
    tracer, registry = get_tracer(), get_registry()
    system = job.source
    system.op.require_commutative()
    with maybe_span(
        tracer, "solver.gir", engine=label, n=system.n, strategy=ran
    ) as root:
        if job.sched is None:
            job.sched = exec_gir.build_plan(system, problem, policy=job.policy)
        plan, table = job.sched, job.sched.table
        power_ops, combine_ops = table.power_entry_count, table.nnz - table.rows
        with maybe_span(tracer, "gir.evaluate") as esp:
            values, base, mode = make(job).evaluate()
            if esp is not None:
                esp.set_attribute("power_ops", power_ops)
                esp.set_attribute("combine_ops", combine_ops)
                esp.set_attribute("mode", mode)
        if root is not None:
            root.set_attribute("cap_iterations", plan.cap_iterations)
            root.set_attribute("renamed", plan.renamed)
        if registry is not None:
            registry.counter("solver.solves", engine="gir").inc()
            registry.counter("gir.power_ops").inc(power_ops)
            registry.counter("gir.combine_ops").inc(combine_ops)
    return values, base, plan


def _schedule(plan):
    """The round schedule (an OrdinaryPlan) a plan's kernels replay."""
    if isinstance(plan, GIRPlan):
        return plan.dispatch
    return getattr(plan, "ordinary", plan)


def _scatter(
    plan, source, initials, solved, base, batch: bool, g=None
) -> List[List[Any]]:
    """Place each row's solved values onto a copy of its initial array.

    ``g`` is the cells ``solved`` lines up with (the plan's ``g`` by
    default).  ``base`` -- the typed ``(m,)`` vector or ``(k, m)``
    batch a kernel ran on -- is scattered in place with one
    ``tolist``, so untouched cells come back in the operator's dtype;
    object values (``base`` is ``None``) take the per-cell loop.  GIR:
    see :func:`_scatter_traces`."""
    if isinstance(plan, GIRPlan) and plan.dispatch is None:
        return [_scatter_traces(plan, source, solved, base)]
    if g is None:
        g = _schedule(plan).g
    if base is not None:
        out = base.copy()
        out[..., g] = solved
        return out.tolist() if batch else [out.tolist()]
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


def _scatter_traces(plan: GIRPlan, system, values, typed) -> List[Any]:
    """Trace rows land in the (possibly renamed) working array, which
    is projected back onto the original cells."""
    out_cells = plan.out_cells
    if typed is not None:
        if plan.renamed:
            work = np.concatenate(
                [typed, typed[np.asarray(system.g, dtype=np.int64)]]
            )
        else:
            work = typed.copy()
        work[out_cells] = values
        if plan.renamed:
            work = work[plan.final_cell_of]
        return work.tolist()
    out = list(system.initial)
    if plan.renamed:
        out += [system.initial[cell] for cell in system.g.tolist()]
    for cell, value in zip(out_cells.tolist(), values):
        out[cell] = value
    if plan.renamed:
        out = [out[int(c)] for c in plan.final_cell_of]
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


def strategy(kind: str) -> str:
    """The strategy a kernel kind runs: ``chains`` (chain scans),
    ``traces`` (GIR power-table evaluation) or ``rounds`` (pointer
    jumping, every other kernel)."""
    return {"chains": "chains", "gir": "traces"}.get(kind, "rounds")


def solve(backend, request, rows=None, f_rows=None):
    """Run ``request`` on ``backend``'s kernels -- or, given ``rows``,
    one stacked sweep over ``k`` value rows sharing its maps.

    Returns ``(outputs, stats, plan, strategy)``: one output array per
    row, stats only for a single solve that asked for them, and the
    :func:`strategy` that ran.
    """
    problem, source, policy = request.problem, request.source, request.policy
    family = problem.family
    options = {**backend.defaults, **request.options}
    batch = rows is not None
    plan = request.plan
    guard = scalars = None
    if family == "moebius":
        kind, guard, scalars = (
            ("affine", None, None)
            if batch
            else exec_moebius.resolve_mode(source, options)
        )
    elif family == "gir" and not exec_gir.dispatches(source, problem, plan):
        kind = "gir"
    else:
        kind = "ordinary"
    if plan is None and kind != "gir":
        plan = build_plan(source, problem)
    op = getattr(source, "op", None)
    if (
        kind == "ordinary"
        and "chains" in backend.kernels
        and _schedule(plan).chains is not None
        and exec_ordinary.chains_apply(op, policy)
    ):
        kind = "chains"
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
    typed = ftyped = None
    if family != "moebius" and op is not None and op.dtype is not None:
        typed = admit(init, op)
        if f_init is not None:
            ftyped = admit(f_init, op)
    if (
        kind in ("ordinary", "chains")
        and make is not exec_ordinary.PythonRounds
        and exec_ordinary.may_wrap(op, _schedule(plan), typed, ftyped)
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
    ran = strategy(kind)
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
    base = cells = None
    active: List[int] = []
    if kind == "gir":
        solved, base, plan = _traces(make, job, problem, label, ran)
    elif kind == "object":
        solved, active = _object(make, job, enforcer, label, ran)
    else:
        span = "moebius" if family == "moebius" else "ordinary"
        kernel, active = _replay(span, make, job, enforcer, label, ran)
        solved, base = kernel.solved(), getattr(kernel, "base", None)
        cells = getattr(kernel, "cells", None)
    stats = _stats(plan, active) if request.collect_stats else None

    def instance(r):
        if not batch:
            return source
        return dataclasses.replace(source, initial=list(rows[r]))

    report = None
    if enforcer is not None and enforcer.should_fallback:
        outs = [
            _sequential(family, instance(r), f_inits[r])
            for r in range(len(initials))
        ]
    else:
        if guard is not None:
            report = _guard_report(guard, solved, label)
        outs = _scatter(plan, source, initials, solved, base, batch, cells)
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
    if problem.family == "ordinary" or (
        problem.family == "moebius"
        and policy is None
        and path in ("auto", "affine")
        and "affine" in backend.kernels
        and exec_moebius.stackable_affine(source, rows)
    ):
        outs, _stats, plan, ran = solve(backend, request, rows, f_rows)
        return outs, plan, ran
    t0 = policy_mod.budget_clock() if policy is not None else 0.0
    plan, ran = request.plan, None
    outs = []
    for row in rows:
        row_request = dataclasses.replace(
            request,
            source=dataclasses.replace(source, initial=list(row)),
            plan=plan,
            policy=None if policy is None else policy.with_remaining(t0),
        )
        (out,), _stats, plan, ran = solve(backend, row_request)
        outs.append(out)
    return outs, plan, ran
