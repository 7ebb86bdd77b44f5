"""Pinned-plan serving sessions: the repeated-solve entry point.

A :class:`Session` is the engine's "server-style" shape: it derives the
:class:`~repro.engine.problem.Problem` of one source object **once** at
construction, builds (and pins) its plan, resolves the backend, and
then serves any number of value vectors through
:meth:`Session.solve` / :meth:`Session.solve_batch` with **zero
per-request planning or cache traffic** -- no fingerprint hashing, no
LRU lookups, no validation.  The per-request work is exactly the plan
replay.

This is the preferred entry point when the same recurrence structure
(index maps + operator) is solved repeatedly over different data::

    from repro.engine import EngineOptions, Session

    session = Session(system, options=EngineOptions(backend="numpy"))
    out = session.solve(values).values          # one value vector
    rows = session.solve_batch(value_matrix)    # many at once

Sessions take the same :class:`~repro.engine.options.EngineOptions` as
:func:`repro.engine.solve`, fixed at construction so every request is
served under one configuration.  They are cheap enough to build per
problem and are safe to keep for the process lifetime; like the rest
of the engine they serialize solves (no internal locking -- wrap in
your own executor for concurrent serving).
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.moebius import _float_coefficients
from ..obs import get_registry
from .api import EngineResult, _reject_unknown, dispatch, request_for
from .backends import Backend, resolve_backend
from .driver import as_values, build_plan, verify
from .failover import failover_ladder
from .options import EngineOptions
from .plan import Plan
from .problem import Problem

__all__ = ["Session", "SessionPool"]

_SESSION_KWARGS = ("options",)
_SOLVE_KWARGS = ("f_initial", "collect_stats")
_BATCH_KWARGS = ("f_initial_batch",)


class Session:
    """One problem's plan + backend, pinned for repeated serving.

    Parameters
    ----------
    source:
        The problem-defining system (an
        :class:`~repro.core.equations.OrdinaryIRSystem`,
        :class:`~repro.core.equations.GIRSystem` or
        :class:`~repro.core.moebius.RationalRecurrence`).  Its index
        maps and operator define the pinned plan; its ``initial``
        values are the default payload for :meth:`solve` with no
        arguments.
    options:
        The unified :class:`~repro.engine.options.EngineOptions`
        record (or a plain dict of backend extras: Moebius ``path`` /
        ``guard``, PRAM ``processors``, ...; a key the backend does
        not read raises :class:`ValueError`), frozen for the session's
        lifetime.  ``verify_plan`` opts into :mod:`repro.check`: preconditions are proved and the
        pinned plan verified at construction (GIR plans, captured from
        the first solve, are verified at capture); ``failover=True``
        (default) arms the backend failover ladder, resolved once at
        construction.
    """

    def __init__(self, source: Any, *, options: Any = None, **unknown: Any):
        _reject_unknown("Session", unknown, _SESSION_KWARGS)
        self._opts = opts = EngineOptions.from_value(options, where="Session")
        self._source = source
        self._problem = Problem.from_system(source)
        extras = opts.backend_options
        self._backend = resolve_backend(opts.backend, self._problem, extras)
        if (
            opts.policy is not None
            and not self._backend.capabilities.supports_policy
        ):
            raise ValueError(
                f"backend {self._backend.name!r} does not support SolvePolicy"
            )
        # Ladders are structural (family + capabilities), so resolve
        # them once here rather than per request.
        self._ladder: List[Backend] = (
            failover_ladder(self._backend, self._problem) if opts.failover
            else [self._backend]
        )
        self._batch_ladder: List[Backend] = (
            failover_ladder(self._backend, self._problem, batch=True)
            if opts.failover
            else [self._backend]
        )
        # GIR plans (which depend on the rename/dispatch pipeline) are
        # captured from the first solve; the PRAM machine does not plan.
        self._plan: Optional[Plan] = None
        if self._backend.name != "pram" and self.family != "gir":
            self._plan = build_plan(source, self._problem)
        # Like the index maps, a Moebius recurrence's coefficient lists
        # are fixed for the session: classify them once, so a request
        # classifies only its own values.
        self._coefficients = (
            _float_coefficients(source) if self.family == "moebius" else None
        )
        if opts.verify_plan:
            verify(
                source, self._problem, self._plan, stage="session", preconditions=True
            )

    # -- introspection -----------------------------------------------------

    @property
    def backend(self) -> str:
        return self._backend.name

    @property
    def family(self) -> str:
        return self._problem.family

    @property
    def problem(self) -> Problem:
        return self._problem

    @property
    def plan(self) -> Optional[Plan]:
        return self._plan

    @property
    def fingerprint(self) -> str:
        return self._problem.fingerprint()

    @property
    def options(self) -> EngineOptions:
        """The :class:`EngineOptions` this session serves under."""
        return self._opts

    @property
    def policy(self):
        return self._opts.policy

    @property
    def batch_capable(self) -> bool:
        """Whether :meth:`solve_batch` is available on the pinned
        backend (the coalescing precondition in :mod:`repro.serve`)."""
        return bool(self._backend.capabilities.batch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(family={self.family!r}, backend={self.backend!r}, "
            f"fingerprint={self.fingerprint[:12]!r})"
        )

    # -- serving -----------------------------------------------------------

    def _with_values(self, values: Sequence[Any]) -> Any:
        if len(values) != self._problem.m:
            raise ValueError(
                f"value vector has {len(values)} cells, the session's "
                f"problem has m={self._problem.m}"
            )
        return dataclasses.replace(self._source, initial=as_values(values))

    def solve(
        self,
        values: Optional[Sequence[Any]] = None,
        *,
        f_initial: Optional[List[Any]] = None,
        collect_stats: bool = False,
        **unknown: Any,
    ) -> EngineResult:
        """Serve one value vector through the pinned plan.

        ``values`` replaces the source's ``initial`` array (``None``
        solves the source as constructed); index maps and operator are
        the session's.  Returns the same :class:`EngineResult` as
        :func:`repro.engine.solve`.
        """
        _reject_unknown("Session.solve", unknown, _SOLVE_KWARGS)
        source = self._source if values is None else self._with_values(values)
        request = request_for(
            self._opts,
            self._problem,
            source,
            self._plan,
            f_initial=f_initial,
            collect_stats=collect_stats,
            coefficients=self._coefficients,
        )
        return self._serve(self._ladder, request)

    def solve_batch(
        self,
        batch_values: Sequence[Sequence[Any]],
        *,
        f_initial_batch: Optional[Sequence[Sequence[Any]]] = None,
        **unknown: Any,
    ) -> List[List[Any]]:
        """Serve ``k`` value vectors (rows of ``batch_values``) in one
        batched replay of the pinned plan."""
        _reject_unknown("Session.solve_batch", unknown, _BATCH_KWARGS)
        if not self._backend.capabilities.batch:
            raise ValueError(
                f"backend {self._backend.name!r} does not support batched "
                "execution"
            )
        request = request_for(
            self._opts,
            self._problem,
            self._source,
            self._plan,
            coefficients=self._coefficients,
        )
        return self._serve(
            self._batch_ladder, request, batch_values, f_initial_batch
        ).values

    def _serve(self, rungs, request, rows=None, f_rows=None) -> EngineResult:
        registry = get_registry()
        started = time.perf_counter() if registry is not None else 0.0
        result = dispatch(rungs, request, rows, f_rows)
        if self._plan is None and result.plan is not None:
            if self._opts.verify_plan:
                verify(self._source, self._problem, result.plan, stage="session")
            self._plan = result.plan  # GIR: pin from the first solve
        result.plan, result.cache_hit = self._plan, self._plan is not None
        if registry is not None:
            labels = {"backend": result.backend, "family": self.family}
            registry.counter("engine.session.solves", **labels).inc(
                1 if rows is None else len(rows)
            )
            if rows is not None:
                registry.counter(
                    "engine.session.batch.solves", backend=result.backend
                ).inc()
            registry.histogram("engine.session.latency_s", **labels).observe(
                time.perf_counter() - started
            )
        return result


class _PoolEntry:
    __slots__ = ("session", "leases", "last_used")

    def __init__(self, session: Session):
        self.session = session
        self.leases = 0
        self.last_used = time.monotonic()


class SessionPool:
    """A bounded pool of pinned :class:`Session`\\ s keyed by
    ``(problem fingerprint, options identity)``.

    This is the serving layer's session owner: :mod:`repro.serve`
    leases one session per distinct (problem, configuration) pair and
    the pool amortizes planning across every request that shares the
    pair.  Eviction is LRU over **idle** entries only -- a session is
    never evicted while leased, so an in-flight coalesced batch cannot
    lose its plan mid-sweep.

    ``acquire``/``release`` bracket each use (or use the
    :meth:`lease` context manager)::

        pool = SessionPool(capacity=32)
        with pool.lease(system, options=opts) as session:
            result = session.solve(values)

    The pool is thread-safe for lease bookkeeping; the leased
    ``Session`` itself keeps the engine's serialized-solve contract
    (callers coordinate their own concurrency, as ``repro.serve`` does
    with per-session asyncio lanes).

    Metrics (when :func:`repro.obs.enable` is active):
    ``engine.session.pool.hits`` / ``.misses`` / ``.evictions``
    counters and an ``engine.session.pool.size`` gauge.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.RLock()
        self._entries: Dict[Tuple[str, tuple], _PoolEntry] = {}
        self._by_id: Dict[int, Tuple[str, tuple]] = {}

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sessions": len(self._entries),
                "leased": sum(
                    1 for e in self._entries.values() if e.leases > 0
                ),
                "capacity": self._capacity,
            }

    # -- leasing -----------------------------------------------------------

    @staticmethod
    def _key(source: Any, opts: EngineOptions) -> Tuple[str, tuple]:
        return (Problem.from_system(source).fingerprint(), opts.key())

    def acquire(self, source: Any, *, options: Any = None) -> Session:
        """Lease the pooled session for ``source`` under ``options``,
        building (and pooling) it on first use.  Every ``acquire``
        must be paired with a :meth:`release`."""
        opts = EngineOptions.from_value(options, where="SessionPool options")
        key = self._key(source, opts)
        registry = get_registry()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if registry is not None:
                    registry.counter("engine.session.pool.misses").inc()
                entry = _PoolEntry(Session(source, options=opts))
                self._entries[key] = entry
                self._by_id[id(entry.session)] = key
                entry.leases += 1
                entry.last_used = time.monotonic()
                self._evict_idle_locked()
            else:
                if registry is not None:
                    registry.counter("engine.session.pool.hits").inc()
                entry.leases += 1
                entry.last_used = time.monotonic()
            if registry is not None:
                registry.gauge("engine.session.pool.size").set(
                    len(self._entries)
                )
            return entry.session

    def release(self, session: Session) -> None:
        """Return a leased session to the pool (idempotence is the
        caller's job -- double releases corrupt the lease count)."""
        with self._lock:
            key = self._by_id.get(id(session))
            if key is None:
                raise ValueError("release() got a session this pool never leased")
            entry = self._entries.get(key)
            if entry is None or entry.leases < 1:
                raise ValueError("release() without a matching acquire()")
            entry.leases -= 1
            entry.last_used = time.monotonic()
            self._evict_idle_locked()

    @contextlib.contextmanager
    def lease(self, source: Any, *, options: Any = None) -> Iterator[Session]:
        session = self.acquire(source, options=options)
        try:
            yield session
        finally:
            self.release(session)

    # -- eviction ----------------------------------------------------------

    def _evict_idle_locked(self) -> None:
        while len(self._entries) > self._capacity:
            idle = [
                (entry.last_used, key)
                for key, entry in self._entries.items()
                if entry.leases == 0
            ]
            if not idle:
                # Everything is leased: over-capacity is allowed rather
                # than evicting a session mid-flight.
                return
            idle.sort()
            _, key = idle[0]
            entry = self._entries.pop(key)
            self._by_id.pop(id(entry.session), None)
            registry = get_registry()
            if registry is not None:
                registry.counter("engine.session.pool.evictions").inc()
                registry.gauge("engine.session.pool.size").set(
                    len(self._entries)
                )

    def clear(self) -> int:
        """Drop every idle session; returns how many were evicted
        (leased sessions stay)."""
        with self._lock:
            idle = [
                key
                for key, entry in self._entries.items()
                if entry.leases == 0
            ]
            for key in idle:
                entry = self._entries.pop(key)
                self._by_id.pop(id(entry.session), None)
            registry = get_registry()
            if registry is not None and idle:
                registry.counter("engine.session.pool.evictions").inc(
                    len(idle)
                )
                registry.gauge("engine.session.pool.size").set(
                    len(self._entries)
                )
            return len(idle)
