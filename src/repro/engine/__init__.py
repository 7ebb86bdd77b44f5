"""``repro.engine``: the Problem -> Plan -> Executor pipeline.

The paper's algorithms split cleanly into a value-independent phase
(trace lists, the dependence DAG, CAP path counts, pointer-jumping
round schedules -- all derivable from ``f, g, h`` alone) and a
value-dependent phase (applying ``op`` over the data).  This package
is that split made explicit:

* :class:`Problem` describes what is plannable (family + index maps);
* :class:`~repro.engine.plan.OrdinaryPlan` /
  :class:`~repro.engine.plan.GIRPlan` /
  :class:`~repro.engine.plan.MoebiusPlan` capture the planned
  artifacts, serialize to dicts, and live in a process-wide LRU
  keyed by :meth:`Problem.fingerprint`;
* backends (``python``, ``numpy``, ``pram``;
  :func:`register_backend` for custom ones) replay plans over values,
  selected by name or ``"auto"``.  The built-in ones are kernel tables
  run by one driver (:mod:`repro.engine.driver`), which owns policy,
  verification, stats, spans and the scatter back to cells.

Entry points::

    from repro.engine import EngineOptions, Session, solve, solve_batch, execute

    result = solve(system)                     # plan cached automatically
    result = solve(system, options=EngineOptions(backend="python"))
    outs = solve_batch(system, batch_of_initial_arrays)
    result = execute(result.plan, system2)     # explicit plan reuse

    session = Session(system, options=EngineOptions(checked=True))
    out = session.solve(values).values         # ...serve repeatedly

Configuration travels as one frozen :class:`EngineOptions` record
(``options=`` everywhere).

For repeated solves over one problem, prefer :class:`Session`: it pins
the plan and backend at construction and serves value vectors with no
per-request planning or cache lookups.  A structured backend failure
reroutes down the ``numpy -> python`` failover ladder
(:mod:`repro.engine.failover`).
"""

from .api import EngineResult, execute, solve, solve_batch
from .failover import FAILOVER_TRIP, LADDER_ORDER, failover_ladder, run_ladder
from .options import EngineOptions
from .session import Session, SessionPool
from .backends import (
    Backend,
    BackendCapabilities,
    ExecutionRequest,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .plan import (
    GIRPlan,
    MoebiusPlan,
    OrdinaryPlan,
    Plan,
    build_round_schedule,
    plan_from_dict,
    plan_to_dict,
)
from .planner import (
    DEFAULT_CACHE_SIZE,
    PlanCache,
    clear_plan_cache,
    get_plan_cache,
    plan_cache_info,
    set_plan_cache,
)
from .problem import Problem

__all__ = [
    "EngineResult",
    "EngineOptions",
    "solve",
    "execute",
    "solve_batch",
    "Session",
    "SessionPool",
    "FAILOVER_TRIP",
    "LADDER_ORDER",
    "failover_ladder",
    "run_ladder",
    "Problem",
    "Plan",
    "OrdinaryPlan",
    "GIRPlan",
    "MoebiusPlan",
    "build_round_schedule",
    "plan_to_dict",
    "plan_from_dict",
    "PlanCache",
    "DEFAULT_CACHE_SIZE",
    "get_plan_cache",
    "set_plan_cache",
    "clear_plan_cache",
    "plan_cache_info",
    "Backend",
    "BackendCapabilities",
    "ExecutionRequest",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
]
