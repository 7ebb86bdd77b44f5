"""Plan building and the process-wide plan cache.

The cache is a small LRU keyed on :meth:`Problem.fingerprint`.  Hits
and misses are counted both on the cache object itself (always, for
``cache_info()``) and -- when observation is enabled -- in the
:mod:`repro.obs` metrics registry as ``engine.plan.cache.hits`` /
``engine.plan.cache.misses`` labeled by solver family, so they show up
in ``--metrics-json`` exports next to the solver counters.

Plans built under a :class:`~repro.resilience.SolvePolicy` that can
truncate *planning itself* (the GIR family, where the policy bounds the
CAP doubling loop) are never cached: a policy-truncated power table is
not reusable by an unbounded solve.  Ordinary/Moebius policies act only
at execute time, so their plans cache normally.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..obs import get_registry
from .plan import Plan

__all__ = [
    "PlanCache",
    "plan_nbytes",
    "get_plan_cache",
    "set_plan_cache",
    "clear_plan_cache",
    "plan_cache_info",
    "DEFAULT_CACHE_SIZE",
]

DEFAULT_CACHE_SIZE = 128


def plan_nbytes(plan) -> int:
    """Approximate resident size of a plan's array payload.

    Counts the flat index arrays (a materialized predecessor array, the
    round schedule ``round_steps`` cached and the terminal list, the
    level layout of any family -- its stored arrays, not a one-range
    ``write`` it keeps as ``start`` -- with its cached scan blocks, a
    GIR plan's CSR power-table triple, a projection map); per-object
    overhead and the GIR table's exact big-int exponents are estimated
    at one word each.  A chain or level plan's bytes are its layout's,
    a rounds plan's its ``pred``'s, until a rounds consumer builds the
    schedule.  Never builds a lazy predecessor array or schedule.  Used by
    :meth:`PlanCache.info` so the cache's memory footprint is visible
    next to its hit rate.
    """
    total = 0
    if getattr(plan, "dispatch", None) is not None:
        return plan_nbytes(plan.dispatch)
    projection = getattr(plan, "final_cell_of", None)
    if projection is not None:
        total += int(projection.nbytes)
    if getattr(plan, "has_pred", False):  # never builds a lazy pred
        total += int(plan.pred.nbytes)
    for active, src in getattr(plan, "_steps", None) or ():
        total += int(active.nbytes) + int(src.nbytes)
    terminals = getattr(plan, "_terminal_idx", None)
    if terminals is not None:
        total += int(terminals.nbytes)
    levels = getattr(plan, "levels", None)
    if levels is not None:
        total += levels.nbytes
    table = getattr(plan, "table", None)
    if table is not None:
        total += int(table.row_ptr.nbytes) + int(table.cells.nbytes)
        total += 8 * table.nnz  # exact-int exponents, >= one word each
    return total


class PlanCache:
    """Thread-safe LRU cache of plans keyed by problem fingerprint."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError("PlanCache needs maxsize >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, Plan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str, *, family: str = "unknown") -> Optional[Plan]:
        with self._lock:
            plan = self._entries.get(fingerprint)
            if plan is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
            else:
                self.misses += 1
        registry = get_registry()
        if registry is not None:
            name = (
                "engine.plan.cache.hits"
                if plan is not None
                else "engine.plan.cache.misses"
            )
            registry.counter(name, family=family).inc()
        return plan

    def put(self, fingerprint: str, plan: Plan) -> None:
        with self._lock:
            self._entries[fingerprint] = plan
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> Dict[str, int]:
        """Size, capacity, hit / miss counts and ``bytes``: the cached
        plans' :func:`plan_nbytes`, what the cache holds resident (a
        level plan pins no system maps, so its layout alone)."""
        with self._lock:
            resident = sum(plan_nbytes(p) for p in self._entries.values())
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "bytes": resident,
        }


_default_cache = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide default plan cache used by
    :func:`repro.engine.solve`."""
    return _default_cache


def set_plan_cache(cache: PlanCache) -> PlanCache:
    """Swap the default plan cache (returns the previous one)."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    _default_cache.clear()


def plan_cache_info() -> Dict[str, int]:
    """Size / hit / miss snapshot of the default cache."""
    return _default_cache.info()
