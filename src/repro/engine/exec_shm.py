"""Value kernels of the ``shm`` backend.

The shared-memory kernels are the first *real-parallelism* backend:
where ``pram`` replays the paper's EREW schedule on one core, ``shm``
fans each pointer-jumping round's active set out across OS processes
over ``multiprocessing.shared_memory`` (see
:mod:`repro.engine.shm_pool` for the pool/barrier protocol).  They
cover

* the **ordinary** family with NumPy-typed operators (``vector_fn`` +
  ``dtype``) -- object monoids cannot cross a process boundary without
  serialization, which would defeat the shared-memory design;
* the **GIR** family for operators that are additionally *power-typed*
  (``vector_power`` + int64-reducible exponents): the plan's CSR power
  table ships through the fingerprint-keyed upload path once, each
  worker evaluates a Brent-style contiguous shard of table rows in one
  round, with the same kernel the numpy backend's batched evaluator
  runs (:func:`repro.engine.exec_gir.eval_rows_vectorized`); and
* the **Moebius affine** fast path (the ``(a, b)`` coefficient sweep).

Unlike the in-process kernels these are *pooled*: the driver
(:mod:`repro.engine.driver`) hands them an already policy-truncated
round count and the policy's wall-clock deadline, which the workers
check cooperatively; the kernel initializes the shared buffers, drives
the rounds through the persistent pool and -- on a worker crash *or a
supervisor-detected hang* -- respawns the dead ranks and retries the
whole job from freshly initialized buffers (the solve is
deterministic, so retries are idempotent), up to a bounded retry
budget, before raising the structured :class:`~repro.errors.FaultError`
(CLI exit code 7).  Each job arms the pool's
:class:`~repro.resilience.supervisor.PoolSupervisor` with a
policy-derived watchdog budget; chaos-injection payloads
(:mod:`repro.chaos`) ride the job dict into the workers.

Observability: ``engine.shm.*`` counters -- solves, rounds, worker
gauge, per-round shard-size histogram, the per-worker barrier-wait
histogram, plan uploads vs reuses, and respawns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..errors import FaultError, PoolSpawnError
from ..obs import get_registry, merge_worker_snapshots
from ..obs.recorder import record_event
from .exec_moebius import affine_coefficients, scatter_base
from .shm_pool import (
    BARRIER_TIMEOUT_S,
    CTRL_CRASH,
    CTRL_SLOTS,
    CTRL_STOP,
    DEFAULT_WORKERS,
    RunOutcome,
    ShmWorkerPool,
    get_pool,
)

__all__ = ["ShmRounds", "ShmAffine", "ShmTraces", "DEFAULT_WORKERS"]

#: Watchdog budget when neither ``watchdog_s`` nor a policy timeout is
#: given: generous enough that no honest solve trips it, far below the
#: 120 s barrier backstop so hangs recover in bounded time.
DEFAULT_WATCHDOG_S = 60.0
#: Slack added on top of a policy-derived watchdog so the cooperative
#: stop flag (checked at round boundaries) gets first shot at a
#: timeout before the supervisor starts killing ranks.
WATCHDOG_GRACE_S = 5.0
#: Crash/hang retry budget per solve (the historical behaviour:
#: one respawn-and-retry before the structured FaultError).
DEFAULT_RETRIES = 1


def _watchdog_budget(policy, override) -> Optional[float]:
    """The heartbeat-staleness budget for one job.

    Explicit ``watchdog_s`` option wins (``0``/negative disables
    supervision); otherwise a policy wall-clock budget plus grace;
    otherwise :data:`DEFAULT_WATCHDOG_S`.
    """
    if override is not None:
        budget = float(override)
        return budget if budget > 0 else None
    if policy is not None and policy.timeout_s is not None:
        return policy.timeout_s + WATCHDOG_GRACE_S
    return DEFAULT_WATCHDOG_S


def _get_pool(workers: int):
    """Spawn failures surface as the structured, failover-eligible
    :class:`~repro.errors.PoolSpawnError` instead of a raw OSError."""
    try:
        return get_pool(workers)
    except (OSError, RuntimeError) as exc:
        record_event("shm.spawn_failed", workers=workers, error=repr(exc))
        raise PoolSpawnError(
            f"could not spawn the shm worker pool ({workers} workers): "
            f"{exc!r}"
        ) from exc


def _record_chaos(outcome: RunOutcome) -> None:
    """Flight-record every chaos event the workers report firing."""
    registry = get_registry()
    for reply in outcome.replies.values():
        for fired in reply.get("chaos_fired", ()):
            # The fired dict's own "kind" is the *fault* kind; the
            # recorder's first argument is the event kind.
            fields = {
                ("fault" if k == "kind" else k): v for k, v in fired.items()
            }
            record_event("chaos.injected", **fields)
            if registry is not None:
                registry.counter(
                    "engine.chaos.injected", kind=fired.get("kind", "?")
                ).inc()


def _drive(
    pool: ShmWorkerPool,
    job: Dict[str, Any],
    *,
    deadline: Optional[float],
    init_buffers: Callable[[], None],
    retries: int = DEFAULT_RETRIES,
    watchdog_s: Optional[float] = None,
) -> RunOutcome:
    """Run ``job``; on a crash or supervisor-detected hang, respawn the
    dead ranks and retry from scratch up to ``retries`` times (the
    solve is deterministic, so retries are idempotent)."""
    registry = get_registry()
    for attempt in range(retries + 1):
        job["attempt"] = attempt  # chaos events target attempts
        init_buffers()
        outcome = pool.run(job, deadline=deadline, watchdog_s=watchdog_s)
        _record_chaos(outcome)
        if outcome.ok:
            return outcome
        if outcome.errors:
            detail = "; ".join(e["message"] for e in outcome.errors)
            raise FaultError(f"shm worker raised: {detail}")
        dead = sorted(set(outcome.crashed + outcome.wedged))
        hung = sorted(outcome.hung)
        # The failing round: crashed ranks die silently, but their
        # siblings' broken-barrier replies say how far the sweep got.
        rounds_reached = sorted(
            {r for r in outcome.aborted_rounds.values() if r is not None}
        )
        record_event(
            "shm.crash",
            kind_of_job=job.get("kind"),
            attempt=attempt,
            crashed=dead,
            hung=hung,
            aborted=sorted(outcome.aborted),
            round=rounds_reached[-1] if rounds_reached else None,
        )
        respawned = pool.repair()
        record_event("worker.respawn", ranks=respawned, attempt=attempt)
        if registry is not None:
            registry.counter("engine.shm.respawns").inc(
                max(len(respawned), 1)
            )
        if attempt == retries:
            how = "hung (watchdog kill)" if hung else "crashed"
            raise FaultError(
                f"shm worker rank(s) {dead} {how} again after a respawn; "
                f"giving up after {retries} retr"
                f"{'y' if retries == 1 else 'ies'}"
            )
    raise AssertionError("unreachable")


def _observe_run(
    family: str,
    workers: int,
    executed: int,
    active_sizes: List[int],
    outcome: Optional[RunOutcome],
) -> None:
    record_event(
        "round", family=family, engine="shm", rounds=executed, workers=workers
    )
    registry = get_registry()
    if registry is None:
        return
    registry.counter("engine.shm.solves", family=family).inc()
    registry.gauge("engine.shm.workers").set(workers)
    if executed:
        registry.counter("engine.shm.rounds", family=family).inc(executed)
    shard_hist = registry.histogram("engine.shm.shard_cells", family=family)
    for size in active_sizes[:executed]:
        shard_hist.observe(-(-size // workers))  # ceil(active / P)
    if outcome is not None:
        wait_hist = registry.histogram("engine.shm.barrier_wait_s")
        for reply in outcome.replies.values():
            wait_hist.observe(reply["barrier_wait_s"])
        # Fold the workers' own registries in: once per rank under
        # proc=worker-N, once rolled up across the fleet.
        merge_worker_snapshots(registry, outcome.worker_metrics)


def _upload_counted(uploaded: bool) -> None:
    registry = get_registry()
    if registry is not None:
        name = "engine.shm.plan.uploads" if uploaded else "engine.shm.plan.reuses"
        registry.counter(name).inc()


def _typed(admitted, values, dtype) -> np.ndarray:
    """The driver's admitted typed array, else ``values`` cast here."""
    return admitted if admitted is not None else np.asarray(values, dtype=dtype)


class _Pooled:
    """One job on the worker pool: the options every shm kernel reads
    (``workers``, ``watchdog_s``, ``max_retries``, ``chaos`` and the
    test-only ``_test_crash`` hook) and the launch protocol."""

    pooled = True
    family = "ordinary"

    def __init__(self, job):
        opts = job.options
        self.workers = int(opts.get("workers", DEFAULT_WORKERS))
        chaos = opts.get("chaos")
        if chaos is not None and hasattr(chaos, "resolve"):
            chaos = chaos.resolve(self.workers)
        self.faults = {"crash": opts.get("_test_crash"), "chaos": chaos}
        self.watchdog_s = _watchdog_budget(job.policy, opts.get("watchdog_s"))
        self.retries = int(opts.get("max_retries", DEFAULT_RETRIES))
        self.deadline = job.deadline
        self.attrs = {"workers": self.workers}
        #: set when the workers stopped at the policy deadline
        self.timed_out = False

    def _launch(
        self,
        pool: ShmWorkerPool,
        job: Dict[str, Any],
        init_buffers: Callable[[], None],
        active_sizes: List[int],
    ) -> int:
        """Run ``job['rounds']`` rounds; returns the rounds executed."""
        ctrl_shm = pool.data_block("ctrl", CTRL_SLOTS * 8)
        ctrl = np.ndarray((CTRL_SLOTS,), dtype="int64", buffer=ctrl_shm.buf)
        ctrl[CTRL_CRASH] = 0

        def init() -> None:
            ctrl[CTRL_STOP] = 0
            init_buffers()

        job.update(
            ctrl=ctrl_shm.name,
            deadline=self.deadline,
            barrier_timeout=BARRIER_TIMEOUT_S,
            obs=get_registry() is not None,
            **self.faults,
        )
        outcome: Optional[RunOutcome] = None
        executed = 0
        if job["rounds"] > 0:
            outcome = _drive(
                pool,
                job,
                deadline=self.deadline,
                init_buffers=init,
                retries=self.retries,
                watchdog_s=self.watchdog_s,
            )
            executed = outcome.rounds
            self.timed_out = outcome.exhausted == "timeout" or bool(outcome.wedged)
        else:
            init()
        _observe_run(self.family, self.workers, executed, active_sizes, outcome)
        return executed

    def _round_job(self, pool, kind, rounds, dtype, data, op) -> Dict[str, Any]:
        """The job of ``rounds`` rounds of ``self.sched``, whose schedule
        ships to the pool once per plan."""
        sched = self.sched
        entry, uploaded = pool.schedule_blocks(sched)
        _upload_counted(uploaded)
        return {
            "kind": kind,
            "rounds": rounds,
            "offsets": entry["offsets"],
            "total": entry["total"],
            "n": sched.n,
            "dtype": str(dtype),
            "sched_active": entry["active"].name,
            "sched_src": entry["src"].name,
            "data": data,
            "op": op,
        }


class ShmRounds(_Pooled):
    """Ordinary round kernel over the pool.  Round semantics (operand
    order, active sets) are identical to the ``numpy`` kernel, so typed
    results are bit-identical to it."""

    label = "shm"

    def __init__(self, job):
        super().__init__(job)
        op = self.op = job.op
        if op.vector_fn is None or op.dtype is None:
            raise ValueError(
                "the shm backend needs a NumPy-typed operator (vector_fn + "
                f"dtype); operator {op.name!r} is object-typed -- use "
                "backend='numpy' or backend='python' instead"
            )
        self.sched = job.sched
        self.dtype = dtype = np.dtype(op.dtype)
        self.init = _typed(job.typed, job.init, dtype)
        self.finit = (
            self.init
            if job.finit is job.init
            else _typed(job.ftyped, job.finit, dtype)
        )
        #: the typed input the driver scatters into
        self.base = self.init

    def run(self, rounds: int) -> int:
        sched, dtype, op = self.sched, self.dtype, self.op
        n = sched.n
        pool = _get_pool(self.workers)
        val_shm = pool.data_block("ordinary.val", n * dtype.itemsize)
        scratch_shm = pool.data_block("ordinary.scratch", n * dtype.itemsize)
        self.val = val = np.ndarray((n,), dtype=dtype, buffer=val_shm.buf)

        def init_buffers() -> None:
            val[:] = self.init[sched.g]
            t = sched.terminal_idx
            if t.size:
                val[t] = op.vector_fn(self.finit[sched.f[t]], val[t])

        data = {"val": val_shm.name, "scratch": scratch_shm.name}
        job = self._round_job(pool, "ordinary", rounds, dtype, data, op.vector_fn)
        return self._launch(pool, job, init_buffers, sched.active_per_round)

    def solved(self):
        return self.val


class ShmAffine(_Pooled):
    """The Moebius affine ``(a, b)`` sweep over the pool."""

    label = "shm.affine"
    family = "moebius"

    def __init__(self, job):
        super().__init__(job)
        self.sched = job.sched
        self.a0, self.b0, V = affine_coefficients(
            job.source, job.sched, None, job.scalars
        )
        self.base = scatter_base(V, job)

    def run(self, rounds: int) -> int:
        sched = self.sched
        n = sched.n
        pool = _get_pool(self.workers)
        blocks = {
            role: pool.data_block(f"affine.{role}", n * 8)
            for role in ("a", "b", "sa", "sb")
        }
        a = np.ndarray((n,), dtype="float64", buffer=blocks["a"].buf)
        self.b = b = np.ndarray((n,), dtype="float64", buffer=blocks["b"].buf)

        def init_buffers() -> None:
            a[:] = self.a0
            b[:] = self.b0

        data = {role: blocks[role].name for role in blocks}
        job = self._round_job(pool, "affine", rounds, "float64", data, None)
        return self._launch(pool, job, init_buffers, sched.active_per_round)

    def solved(self):
        return self.b  # completed maps end constant: value = b


class ShmTraces(_Pooled):
    """GIR trace evaluation over the pool: every worker evaluates a
    contiguous shard of power-table rows in one round.  Requires a
    *power-typed* operator -- ``vector_fn`` + ``vector_power`` +
    ``dtype``, with exponents reducible into int64 (directly or through
    the operator's ``power_period``)."""

    label = "shm"
    family = "gir"

    def __init__(self, job):
        super().__init__(job)
        self.plan, self.op = job.sched, job.source.op
        op = self.op
        if op.vector_fn is None or op.vector_power is None or op.dtype is None:
            raise ValueError(
                "the shm backend needs a power-typed operator (vector_fn + "
                f"vector_power + dtype); operator {op.name!r} cannot evaluate "
                "traces across a process boundary -- use backend='numpy' or "
                "backend='python' instead"
            )
        self.dtype = dtype = np.dtype(op.dtype)
        try:
            self.initial = np.asarray(job.source.initial, dtype=dtype)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(
                f"initial values do not fit operator dtype {op.dtype!r} for "
                f"the shm backend ({exc!r}) -- use backend='numpy' or "
                "backend='python' instead"
            ) from exc
        domain_check = getattr(op.vector_power, "domain_check", None)
        if domain_check is not None and not domain_check(self.initial):
            raise ValueError(
                f"initial values fall outside operator {op.name!r}'s "
                "vectorized domain for the shm backend -- use "
                "backend='numpy' or backend='python' instead"
            )

    def evaluate(self):
        """``(row values, typed initial array, mode)``; the values are
        ``None`` when the workers stopped at the policy deadline."""
        plan, op, dtype, initial = self.plan, self.op, self.dtype, self.initial
        table = plan.table
        if table.reduced_exponents(op.power_period) is None:
            raise ValueError(
                "the shm backend needs int64-reducible trace exponents; "
                f"operator {op.name!r} has no power period and this "
                "system's path counts overflow int64 -- use "
                "backend='numpy' or backend='python' instead"
            )
        n_rows = table.rows
        pool = _get_pool(self.workers)
        entry, uploaded = pool.gir_blocks(plan, op.power_period)
        _upload_counted(uploaded)
        init_shm = pool.data_block("gir.init", initial.size * dtype.itemsize)
        out_shm = pool.data_block("gir.out", n_rows * dtype.itemsize)
        init_view = np.ndarray((initial.size,), dtype=dtype, buffer=init_shm.buf)
        out_view = np.ndarray((n_rows,), dtype=dtype, buffer=out_shm.buf)

        def init_buffers() -> None:
            init_view[:] = initial
            out_view[:] = 0  # retry hygiene: stale rows never leak

        job = {
            "kind": "gir",
            "rounds": 1,
            "offsets": [0, n_rows],
            "total": n_rows,
            "n": n_rows,
            "dtype": str(dtype),
            "gir": {
                "row_ptr": entry["row_ptr"].name,
                "cells": entry["cells"].name,
                "exps": entry["exps"].name,
                "nnz": entry["nnz"],
                "init_len": int(initial.size),
            },
            "data": {"init": init_shm.name, "out": out_shm.name},
            "op": {"fn": op.vector_fn, "power": op.vector_power},
        }
        self._launch(pool, job, init_buffers, [n_rows])
        if self.timed_out:
            return None, None, "shm"
        return out_view.copy(), initial, "shm"
