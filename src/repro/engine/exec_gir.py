"""GIR plans and trace-evaluation kernels: plan the dependence-DAG/CAP
pipeline once, evaluate trace power tables per solve.

The value-independent artifacts -- renaming, the dependence graph, the
CAP path counts flattened into the CSR-style
:class:`~repro.engine.plan.PowerTable` -- live in the
:class:`~repro.engine.plan.GIRPlan`; re-solving a system with the same
maps (different initial values, different commutative operator) skips
straight to trace evaluation.  Ordinary-shaped systems carry a nested
:class:`OrdinaryPlan` that the driver replays through the backend's
ordinary round kernel instead.

Trace evaluation has two modes:

* ``"batched"`` -- for operators with a picklable ``vector_power``
  (and exponents reducible into int64 via ``power_period``): entries
  with exponent 1 gather their initial value directly, only the
  entries with exponent > 1 go through ``vector_power``, and the
  combine phase runs vectorized over all rows sharing a factor count,
  replicating the legacy balanced pairing column-for-column so results
  are bit-identical to the per-row loop.
* ``"rows"`` -- the historical per-row evaluation over pre-sorted
  cells (no per-call re-sort), with a power memo so each distinct
  atomic power is still computed once; this is the exact-semantics
  path for ``Fraction``/object operators and the comparator the
  Fig-5 bench gates against.

The powered entries' index and int64 exponent reductions are cached on
the :class:`PowerTable` per power period, so each extra initial-value
vector costs only its powers and combines.  Spans, stats, policy and
the projection back onto the original cells belong to
:mod:`repro.engine.driver`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_tracer, maybe_span
from ..core.cap import CAPResult, count_all_paths
from ..core.depgraph import build_dependence_graph
from ..core.equations import OrdinaryIRSystem, normalize_non_distinct
from ..errors import PolicyError
from . import exec_ordinary
from .plan import GIRPlan, PowerTable

__all__ = [
    "build_plan",
    "dispatches",
    "combine_rows",
    "TraceEvaluator",
    "RowTraceEvaluator",
]

_EVAL_MODES = ("auto", "batched", "rows")


def dispatches(system, problem, plan: Optional[GIRPlan]) -> bool:
    """Whether the solve takes the ordinary pointer-jumping path (an
    ordinary-shaped system with distinct ``g``) instead of CAP."""
    if plan is not None:
        return plan.dispatch is not None
    system.validate()
    return (
        problem.allow_ordinary_dispatch
        and system.is_ordinary_shaped()
        and system.g_is_distinct()
    )


def build_plan(system, problem, *, policy=None) -> GIRPlan:
    """Build the value-independent GIR plan (dispatch or CAP pipeline).

    Shared by every backend and the CLI; emits the ``gir.normalize`` /
    ``gir.build_graph`` / ``gir.cap`` phase spans (nested under
    whatever span the caller holds open).
    """
    if dispatches(system, problem, None):
        ordinary = OrdinaryIRSystem(
            initial=list(system.initial), g=system.g, f=system.f, op=system.op
        )
        return GIRPlan(
            fingerprint=problem.fingerprint(),
            n=system.n,
            m=system.m,
            dispatch=exec_ordinary.build_plan(ordinary, problem.fingerprint()),
        )

    system.op.require_commutative()
    tracer = get_tracer()
    renamed = not system.g_is_distinct()
    final_cell_of = None
    work_system = system
    if renamed:
        if not problem.allow_rename:
            raise ValueError(
                "system has non-distinct g; pass allow_rename=True "
                "or normalize explicitly"
            )
        if policy is not None and policy.on_exhaustion == "partial":
            # A partial CAP state keeps open final-node prefixes, which
            # have no projection onto a renamed system's cells.
            raise PolicyError(
                "on_exhaustion='partial' is not supported for a GIR "
                "system with repeated g (renamed); use 'raise' or "
                "'fallback'"
            )
        with maybe_span(tracer, "gir.normalize"):
            norm = normalize_non_distinct(system)
        work_system = norm.system
        final_cell_of = norm.final_cell_of

    with maybe_span(tracer, "gir.build_graph") as gsp:
        graph = build_dependence_graph(work_system)
        if gsp is not None:
            gsp.set_attribute("edges", graph.edge_count())
            gsp.set_attribute("depth", graph.depth())
    with maybe_span(tracer, "gir.cap"):
        cap: CAPResult = count_all_paths(graph, policy=policy)
    # Leaf cells are always original cells (< m): renamed version
    # cells are written before any read, so only pristine cells appear
    # as initial-value leaves.  The table therefore indexes the
    # original initial array.  A converged matrix CAP hands over its
    # int64 CSR ``L`` as is; dict-row results are flattened.
    table = PowerTable.from_cap(cap, graph.n)
    return GIRPlan(
        fingerprint=problem.fingerprint(),
        n=system.n,
        m=system.m,
        renamed=renamed,
        out_cells=work_system.g,
        table=table,
        final_cell_of=final_cell_of,
        cap_iterations=cap.iterations,
        cap_edge_work=cap.edge_work,
    )


# ---------------------------------------------------------------------------
# Trace evaluation
# ---------------------------------------------------------------------------


def combine_rows(row_ptr: np.ndarray, factors: np.ndarray, vector_fn) -> np.ndarray:
    """Combine each CSR row's pre-powered ``factors`` into one value.

    The combine replays the legacy balanced pairwise reduction
    **column-for-column** -- pair ``(2t, 2t+1)``, odd leftover appended
    at the end of the next level -- so results are bit-identical to
    :func:`repro.core.gir.evaluate_trace_powers` even for non-exact
    (floating) operators.  Rows sharing a factor count combine in one
    vectorized sweep.
    """
    lengths = np.diff(row_ptr)
    if lengths.size and int(lengths.min()) == 0:
        raise ValueError("empty trace: cell was never assigned")
    out = np.empty(lengths.size, dtype=factors.dtype)
    starts = row_ptr[:-1]
    for width in np.unique(lengths):
        width = int(width)
        idx = np.nonzero(lengths == width)[0]
        base = starts[idx]
        cols = [factors[base + j] for j in range(width)]
        while len(cols) > 1:
            nxt = [
                vector_fn(cols[2 * t], cols[2 * t + 1])
                for t in range(len(cols) // 2)
            ]
            if len(cols) % 2:
                nxt.append(cols[-1])
            cols = nxt
        out[idx] = cols[0]
    return out


def _typed_eval_setup(plan: GIRPlan, initial: Sequence[Any], op, typed=None):
    """Try to stage the vectorized path: returns ``(initial_arr,
    power_idx, reduced_exps)`` or ``None`` when the operator/values
    cannot take it exactly.  ``typed`` is ``initial`` already admitted
    as an ``op.dtype`` array (:func:`~repro.engine.exec_ordinary.admit`),
    when the solve has one."""
    if op.vector_fn is None or op.vector_power is None or op.dtype is None:
        return None
    powered = plan.table.powered(op.power_period)
    if powered is None:
        return None
    initial_arr = typed
    if initial_arr is None:
        try:
            initial_arr = np.asarray(initial, dtype=np.dtype(op.dtype))
        except (OverflowError, TypeError, ValueError):
            return None
    if initial_arr.shape != (len(initial),):
        return None
    domain_check = getattr(op.vector_power, "domain_check", None)
    if domain_check is not None and not domain_check(initial_arr):
        return None
    return (initial_arr,) + powered


def _evaluate_batched(plan: GIRPlan, setup, op) -> np.ndarray:
    """One vectorized sweep: gather every entry's initial value, power
    the entries with exponent > 1 in place, combine all rows level by
    level."""
    initial_arr, idx, exps = setup
    table = plan.table
    factors = initial_arr[table.cells]
    if idx.size:
        factors[idx] = op.vector_power(factors[idx], exps)
    return combine_rows(table.row_ptr, factors, op.vector_fn)


def _evaluate_rows(
    plan: GIRPlan, initial: Sequence[Any], op
) -> List[Any]:
    """Per-row object-exact evaluation over pre-sorted cells, with a
    power memo so each distinct atomic power is computed once."""
    table = plan.table
    memo: Dict[Tuple[int, int], Any] = {}
    power = op.power
    values: List[Any] = []
    ptr = table.row_ptr.tolist()
    cells = table.cells.tolist()
    exps = table.exponent_list()
    for i in range(table.rows):
        lo, hi = ptr[i], ptr[i + 1]
        items = []
        for j in range(lo, hi):
            c = cells[j]
            x = exps[j]
            items.append((c, x))
            if x > 1 and (c, x) not in memo:
                memo[(c, x)] = power(initial[c], x)
        if not items:
            raise ValueError("empty trace: cell was never assigned")
        factors = [
            initial[c] if x == 1 else memo[(c, x)] for c, x in items
        ]
        # balanced pairwise reduction, identical to the legacy order
        while len(factors) > 1:
            nxt = [
                op.fn(factors[2 * t], factors[2 * t + 1])
                for t in range(len(factors) // 2)
            ]
            if len(factors) % 2:
                nxt.append(factors[-1])
            factors = nxt
        values.append(factors[0])
    return values


class TraceEvaluator:
    """In-process GIR kernel: evaluates one initial-value vector's
    traces, ``gir_eval="auto"`` resolving to ``prefer``."""

    label = "numpy"
    prefer = "batched"

    def __init__(self, job):
        self.plan, self.system, self.typed = job.sched, job.source, job.typed
        self.mode = job.options.get("gir_eval", "auto")
        if self.mode not in _EVAL_MODES:
            raise ValueError(
                f"unknown gir_eval mode {self.mode!r}; expected one of "
                f"{_EVAL_MODES}"
            )

    def evaluate(self) -> Tuple[Any, Optional[np.ndarray], str]:
        """``(row values, typed initial array or None, mode used)``."""
        plan, initial, op = self.plan, self.system.initial, self.system.op
        mode = self.prefer if self.mode == "auto" else self.mode
        if mode == "batched":
            setup = _typed_eval_setup(plan, initial, op, self.typed)
            if setup is not None:
                return _evaluate_batched(plan, setup, op), setup[0], mode
        return _evaluate_rows(plan, initial, op), None, "rows"


class RowTraceEvaluator(TraceEvaluator):
    """The pure-Python backend's evaluator: ``auto`` means rows."""

    label = "python"
    prefer = "rows"
