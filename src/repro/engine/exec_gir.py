"""GIR plans and trace-evaluation kernels: plan the dependence DAG once,
evaluate each initial-value vector per solve.

The value-independent artifacts -- renaming, the dependence graph and
ONE evaluation layout -- live in the
:class:`~repro.engine.plan.GIRPlan`; re-solving a system with the same
maps (different initial values, different commutative operator) skips
straight to evaluation.  Ordinary-shaped systems carry a nested
:class:`OrdinaryPlan` that the driver replays through the backend's
ordinary round kernel instead.

The planner picks the layout from the graph's depth and the policy.
A graph at most :data:`~repro.core.cap._LEVEL_MAX_DEPTH` (62) deep,
planned without a policy, gets a
:class:`~repro.engine.plan.LevelLayout` over the graph's nodes and no
CAP run.  Every backend sweeps it over an ``(n + m)`` node buffer
with the ordinary level kernel's own statement
(:func:`~repro.engine.exec_ordinary.sweep_level`), one per dependence
level, ``O(n)`` work folding exactly the loop's operands in the
loop's order, so results equal ``run_gir`` in value and type, floats
included.  The buffer stays: unlike an ordinary plan's cells, GIR
operands can be anti-dependent.  The NumPy backend sweeps
``op.vector_fn`` over the admitted array when :func:`level_exact`
proves that exact; otherwise, and always on the pure-Python backend,
the sweep runs ``op.fn`` over an object buffer of the caller's values.

A deeper graph (the DP) or a policy (bounded CAP doubling) gets the
CAP power table instead, and trace evaluation has two modes:

* ``"batched"`` -- for operators with a picklable ``vector_power``
  (and exponents that fit or reduce into int64): entries
  with exponent 1 gather their initial value directly, only the
  entries with exponent > 1 go through ``vector_power``, and the
  combine phase runs vectorized over all rows sharing a factor count,
  replicating the legacy balanced pairing column-for-column so results
  are bit-identical to the per-row loop.  The NumPy backend runs it
  wherever that typed setup applies.
* ``"rows"`` -- the historical per-row evaluation over pre-sorted
  cells (no per-call re-sort), with a power memo so each distinct
  atomic power is still computed once; this is the exact-semantics
  path for ``Fraction``/object operators, the pure-Python backend's,
  and the comparator the Fig-5 bench gates against.

Once path counts would leave int64, CAP counts them modulo the
operator's ``power_period`` when it has one (``Problem.period``), so
the plan's table already holds int64 residues; a table of exact counts
is reduced on first use instead.  Either way the powered entries'
index and int64 exponents are cached on the :class:`PowerTable` per
power period, so each extra initial-value vector costs only its powers
and combines.  Spans, stats, policy and the projection back onto the
original cells belong to :mod:`repro.engine.driver`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_tracer, maybe_span
from ..core.cap import CAPResult, count_all_paths, node_levels
from ..core.depgraph import dependence_graph
from ..core.equations import OrdinaryIRSystem, normalize_non_distinct
from ..errors import PlanVerificationError, PolicyError
from . import exec_ordinary
from .plan import GIRPlan, LevelLayout, PowerTable

__all__ = [
    "build_plan",
    "check_period",
    "dispatches",
    "combine_rows",
    "level_exact",
    "TraceEvaluator",
    "RowTraceEvaluator",
]

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
    """Build the value-independent GIR plan: a dispatch plan, a level
    layout, or the CAP power table.

    An unbounded plan (no ``policy``) whose dependence graph is at most
    :data:`~repro.core.cap._LEVEL_MAX_DEPTH` deep is a level plan.
    Shared by every backend and the CLI;
    emits the ``gir.normalize`` / ``gir.build_graph`` / ``gir.levels``
    / ``gir.cap`` phase spans (nested under whatever span the caller
    holds open).
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
    # ``dispatches`` validated the system; ``g`` is tested distinct
    # once here, and the (renamed) system's graph is built unchecked.
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
        graph = dependence_graph(work_system)
        if gsp is not None:
            gsp.set_attribute("edges", graph.edge_count())
    level = None
    levels = policy is None
    if levels:
        with maybe_span(tracer, "gir.levels") as lsp:
            level = node_levels(graph)
            if lsp is not None:
                depth = None if level is None else graph.depth()
                lsp.set_attribute("depth", depth)
    if level is not None:
        return GIRPlan(
            fingerprint=problem.fingerprint(),
            n=system.n,
            m=system.m,
            renamed=renamed,
            final_cell_of=final_cell_of,
            levels=LevelLayout.from_graph(graph, level),
        )
    with maybe_span(tracer, "gir.cap") as csp:
        cap: CAPResult = count_all_paths(
            graph,
            policy=policy,
            period=problem.period,
            # a graph found too deep for the level pass: what "auto"
            # would pick after finding that again
            method="dp" if levels else "auto",
        )
        if csp is not None:  # an unbounded CAP has cached the depth
            csp.set_attribute("depth", graph.depth())
            csp.set_attribute("period", cap.period)
    # Leaf cells are always original cells (< m): renamed version
    # cells are written before any read, so only pristine cells appear
    # as initial-value leaves.  The table therefore indexes the
    # original initial array.  An unbounded CAP (level pass or DP) or
    # a converged matrix CAP hands over its CSR ``L`` as is; a
    # doubling run's dict rows are flattened.  Counts are residues
    # modulo ``cap.period`` when set.
    table = PowerTable.from_cap(cap, graph.n)
    return GIRPlan(
        fingerprint=problem.fingerprint(),
        n=system.n,
        m=system.m,
        renamed=renamed,
        table=table,
        final_cell_of=final_cell_of,
        cap_iterations=cap.iterations,
        cap_edge_work=cap.edge_work,
    )


def check_period(plan: GIRPlan, op) -> None:
    """Refuse a power table reduced modulo a period other than ``op``'s:
    its exponents would power to wrong values.  A table of exact counts
    serves any operator, and so does a level plan."""
    table = plan.table
    if table is not None and not table.serves(op.power_period):
        raise PlanVerificationError(
            f"GIR009: the plan's power table counts paths modulo "
            f"{table.period}, but the {op.name!r} operator's power period "
            f"is {op.power_period}; re-plan for this operator"
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
    # the distinct widths, ascending (a bincount: no hash-based unique)
    for width in np.flatnonzero(np.bincount(lengths)).tolist():
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


#: Ufuncs whose float64 / int64 results equal the loop's Python
#: arithmetic on the same values (while an int64 result cannot wrap).
_EXACT_UFUNCS = (np.add, np.multiply, np.minimum, np.maximum)


def level_exact(op, typed: Optional[np.ndarray], levels: int) -> bool:
    """Whether sweeping ``op.vector_fn`` over the admitted initial
    values ``typed`` for ``levels`` dependence levels computes exactly
    what the loop's ``op.fn`` does.

    A modular operator needs its values inside the domain its vector
    power checks (``[0, m)``: its int64 kernels cannot wrap there, and
    results stay there).  A stock ufunc is exact on float64, and on
    int64 while no result can wrap: an iteration at level ``L`` folds
    at most ``2**L`` initial values
    (:func:`~repro.engine.exec_ordinary.may_wrap`).  Anything else --
    object values, other dtypes, other vector functions -- sweeps
    ``op.fn`` over objects."""
    if typed is None or typed.ndim != 1 or op.vector_fn is None:
        return False
    domain_check = getattr(op.vector_power, "domain_check", None)
    if domain_check is not None:
        return bool(domain_check(typed))
    if op.vector_fn not in _EXACT_UFUNCS:
        return False
    if typed.dtype not in (np.float64, np.int64):
        return False
    return not exec_ordinary.may_wrap(op, 2**levels, typed)


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
    power memo so each distinct atomic power is computed once.

    A one-factor row is always powered: its trace folds at least two
    operands, so its exact count is >= 2 even when a reduced table
    stores the residue 1, and ``power(x, 1)`` (for a modular operator,
    ``x mod m``) is what the loop's fold yields for any ``x``."""
    table = plan.table
    memo: Dict[Tuple[int, int], Any] = {}
    power = op.power
    values: List[Any] = []
    ptr = table.row_ptr.tolist()
    cells = table.cells.tolist()
    exps = table.exponent_list()
    for i in range(table.rows):
        lo, hi = ptr[i], ptr[i + 1]
        if lo == hi:
            raise ValueError("empty trace: cell was never assigned")
        single = hi - lo == 1
        items = []
        for j in range(lo, hi):
            c = cells[j]
            x = exps[j]
            items.append((c, x))
            if (x > 1 or single) and (c, x) not in memo:
                memo[(c, x)] = power(initial[c], x)
        factors = [
            initial[c] if x == 1 and not single else memo[(c, x)]
            for c, x in items
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


def _sweep(plan: GIRPlan, values: np.ndarray, fn) -> np.ndarray:
    """A level plan's iteration results: ``fn`` swept level by level
    over a node buffer whose slot ``i`` is iteration ``i``'s result and
    slot ``n + c`` cell ``c``'s initial value (``values``)."""
    n, layout = plan.n, plan.levels
    nodes = np.empty(n + values.shape[0], dtype=values.dtype)
    nodes[n:] = values
    ptr = layout.level_ptr.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow saturates to +/-inf, as Python floats do
        for lo, hi in zip(ptr[:-1], ptr[1:]):
            exec_ordinary.sweep_level(nodes, layout, slice(lo, hi), fn)
    return nodes[:n]


class TraceEvaluator:
    """The NumPy backend's GIR kernel: evaluates one initial-value
    vector.  A level plan sweeps ``op.vector_fn`` over the admitted
    array when :func:`level_exact` proves that exact, else ``op.fn``
    over objects; a table plan evaluates batched when the typed setup
    applies, else by rows."""

    label = "numpy"
    #: whether this kernel may run typed NumPy statements
    typed = True

    def __init__(self, job):
        self.job = job

    def evaluate(self) -> Tuple[Any, Optional[np.ndarray], str]:
        """``(row values, the initial array they scatter onto -- typed,
        or an object array -- or None, mode used)``."""
        job = self.job
        plan, initial, op = job.sched, job.source.initial, job.source.op
        if plan.levels is not None:
            if self.typed and level_exact(op, job.typed, plan.levels.levels):
                base, fn, mode = job.typed, op.vector_fn, "levels"
            else:
                # element-wise, as the loop reads them: a value may be a
                # sequence
                base = np.fromiter(initial, dtype=object, count=len(initial))
                fn, mode = np.frompyfunc(op.fn, 2, 1), "objects"
            return _sweep(plan, base, fn), base, mode
        if self.typed:
            setup = _typed_eval_setup(plan, initial, op, job.typed)
            if setup is not None:
                return _evaluate_batched(plan, setup, op), setup[0], "batched"
        return _evaluate_rows(plan, initial, op), None, "rows"


class RowTraceEvaluator(TraceEvaluator):
    """The pure-Python backend's GIR kernel: object sweeps on a level
    plan, rows on a table plan."""

    label = "python"
    typed = False
