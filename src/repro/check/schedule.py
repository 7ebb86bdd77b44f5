"""Static plan verification: prove a plan equivalent to the sequential
loop without running it.

An ordinary or Moebius rounds plan (:class:`~repro.engine.plan.OrdinaryPlan`,
``strategy == "rounds"``) stores only the Lemma-1 predecessor array
``pred``; every pointer-jumping round follows from it
(:func:`~repro.engine.plan.build_round_schedule`, a deterministic
replay that the kernels run verbatim and that no plan stores).  So a
rounds plan is proved by its ``pred``:

* **with the system** (SCH006): ``pred`` equals the array Lemma 1
  re-derives from ``(g, f)`` -- after ``g`` is proved in range (SCH005)
  and injective (SCH009) -- so the rounds concatenate exactly the
  sequential traces;
* **without it** (SCH005): every ``pred[i]`` lies in ``[-1, i)``.
  That is Lemma 1's loop order (an iteration reads only an earlier
  writer), and it makes ``pred`` acyclic, so pointer jumping closes
  every chain.

SCH001-SCH004, the rules of the retired stored round schedule, are
never reused.

A chain or level plan of either family (``plan.levels``: a
:class:`~repro.engine.plan.LevelLayout`, the slots each iteration
writes cut into pred-linked segments grouped by dependence level, with
each segment's seed read) is proved by one function,
:func:`verify_level_layout`, over the plan's slot-to-iteration map --
an ordinary or Moebius plan's slots are cells (the writer map of
``g``), a GIR plan's the dependence graph's nodes (iteration ``i`` at
slot ``i``, the leaves never written).  The write slots name every
iteration once, so the segment order is a permutation (LVL001; a
one-range layout's slots, ``start`` onwards, must lie in the slot
space); the
segment offsets rise strictly from 0 to ``n`` and the level pointers
monotonically from 0 to the segment count (LVL002); a seed another
iteration writes comes from an earlier level, and an initial-value
read happens before any write of its slot -- in cell space the roots
sit in level 0, in node space the leaf slots are never written (LVL003,
happens-before); the reads equal the operands re-derived from the
system -- each head's ``f`` (and ``h = g``) for an ordinary plan, the
dependence graph for a GIR plan (LVL004); and every later member of a
segment reads, as its ``f`` operand, the result of the member before
it (LVL005).  Each level then folds exactly the loop's operands.  No
ordinary plan keeps ``g`` / ``f``: given the system's maps a chain or
level plan is proved as above, else by its layout alone
(LVL001-LVL003, each write cell owned by its position).
CHN001-CHN004, the rules of the retired separate chain layout, are
never reused.

A GIR plan stores no output cells: its iterations write the system's
``g``, or the version cells ``m + i`` of its renaming.  So it is
``renamed`` iff it holds the ``final_cell_of`` projection (SCH007,
without the system too), and given the system iff the system's ``g``
repeats a cell, with the projection the renaming gives (GIR013, on
table plans too).  GIR003, the retired rule of distinct stored output
cells, is never reused.  The power-table rules (GIR002, GIR004-GIR009)
check a level plan's table only once it is built.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.cap import residue
from .findings import CheckReport, error, info

__all__ = [
    "verify_plan",
    "verify_ordinary_schedule",
    "verify_level_layout",
    "verify_or_raise",
]

#: Deep CAP-table verification against the dependence-graph oracle is
#: O(n * leaves); bounded so ``verify_plan`` stays cheap by default.
#: Above the bound the verifier switches to the unbounded total-count
#: oracle (GIR007) plus exact equivalence on sampled rows (GIR008).
GIR_ORACLE_MAX_N = 2048
#: Rows exactly re-derived from the dependence graph when the full
#: oracle is out of budget.
GIR_SAMPLE_ROWS = 16
#: Work bound for the sampled oracle's memoized DP (total dict entries
#: accumulated); past it the remaining sampled rows are skipped.
GIR_SAMPLE_BUDGET = 4_000_000
#: Modulus of the unbounded total-path-count oracle: a prime small
#: enough that per-row int64 sums cannot overflow.
_GIR_TOTAL_MOD = 2_147_483_629


# ---------------------------------------------------------------------------
# Ordinary and Moebius plans
# ---------------------------------------------------------------------------


def verify_ordinary_schedule(
    plan: Any, *, system: Any = None, where: str = "plan"
) -> CheckReport:
    """Prove an :class:`~repro.engine.plan.OrdinaryPlan` equivalent to
    the sequential loop (see module docstring).

    No plan holds maps: they come from ``system`` (the system, or its
    :class:`~repro.engine.problem.Problem`) when given, and prove a
    chain or level plan's layout and a stored ``pred`` (SCH006).
    Without them a chain or level plan is proved by its layout alone
    (:func:`_verify_bare_levels`), a rounds plan by its ``pred``'s
    loop order (SCH005)."""
    report = CheckReport(subject=where)
    n, m = int(plan.n), int(plan.m)
    if system is None and plan.levels is not None:
        return _verify_bare_levels(plan, where)
    if system is None and not plan.has_pred:
        report.add(error("SCH007", "plan holds neither a layout nor pred", where=where))
        return report
    stored = plan.has_pred  # never build a lazy pred
    pred = np.asarray(plan.pred if stored else np.full(n, -1), dtype=np.int64)
    g = f = pred
    if system is not None:
        g = np.asarray(system.g, dtype=np.int64)
        f = np.asarray(system.f, dtype=np.int64)

    # -- shapes and bounds --------------------------------------------
    report.ran()
    if n < 0 or m < 0 or g.shape != (n,) or f.shape != (n,) or pred.shape != (n,):
        report.add(
            error(
                "SCH007",
                f"plan metadata n={n}, m={m} disagrees with map shapes "
                f"g{g.shape}, f{f.shape}, pred{pred.shape}",
                where=where,
                hint="rebuild the plan; do not edit serialized plans by hand",
            )
        )
        return report

    report.ran()
    if system is None:
        # Lemma 1's loop order: pred[i] in [-1, i), hence acyclic
        bad = (pred < -1) | (pred >= np.arange(n, dtype=np.int64))
        if bool(bad.any()):
            k = int(np.argmax(bad))
            report.add(
                error(
                    "SCH005",
                    f"pred[{k}] = {int(pred[k])} outside [-1, {k}): an "
                    "iteration's predecessor is an earlier iteration or "
                    "none, else pointer jumping follows no loop trace",
                    where=where,
                    data={"map": "pred", "iteration": k},
                )
            )
        return report
    for name, arr in (("g", g), ("f", f)):
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= m):
            bad = int(np.argmax((arr < 0) | (arr >= m)))
            report.add(
                error(
                    "SCH005",
                    f"{name} maps iteration {bad} to cell {int(arr[bad])}, "
                    f"outside the array domain [0, {m})",
                    where=where,
                    data={"map": name, "iteration": bad},
                )
            )
    if not report.ok:
        return report

    # -- g injectivity + predecessor consistency (Lemma 1) -----------
    # writer[g] == arange(n) simultaneously proves g injective (a
    # duplicate cell keeps only its last writer) and gives the writer
    # map for the pred cross-check -- O(n + m), no sort.
    report.ran(2)
    idx = np.arange(n, dtype=np.int64)
    writer = np.full(m, -1, dtype=np.int64)
    writer[g] = idx
    if not np.array_equal(writer[g], idx):
        dup = int(g[np.argmax(writer[g] != idx)])
        its = np.nonzero(g == dup)[0][:2].tolist()
        report.add(
            error(
                "SCH009",
                f"plan g is not injective: cell {dup} is written by "
                f"iterations {its[0]} and {its[1]}; the round replay "
                "would race on it",
                where=where,
                data={"cell": dup, "iterations": its},
                hint="OrdinaryIR requires distinct g; normalize first",
            )
        )
        return report
    expected_pred = writer[f]
    expected_pred[expected_pred >= idx] = -1
    if stored and not np.array_equal(expected_pred, pred):
        bad = int(np.argmax(expected_pred != pred))
        report.add(
            error(
                "SCH006",
                f"pred[{bad}] = {int(pred[bad])} but Lemma 1 gives "
                f"{int(expected_pred[bad])} from (g, f); the rounds "
                "would concatenate a different trace than the "
                "sequential loop",
                where=where,
                data={
                    "iteration": bad,
                    "got": int(pred[bad]),
                    "expected": int(expected_pred[bad]),
                },
            )
        )
        return report
    if plan.levels is not None:
        report.extend(
            verify_level_layout(plan.levels, writer, (f, None), cell_space=True, where=where)
        )
    return report


def _verify_bare_levels(plan: Any, where: str) -> CheckReport:
    """A level plan checked without the system's maps: LVL001-LVL003
    over its cells, each write cell owned by its level position, so a
    read past level 0 must be of a cell an earlier level writes.  LVL004,
    LVL005 and a built ``pred`` (SCH006) need the maps."""
    n, m = int(plan.n), int(plan.m)
    owner = np.full(max(m, 0), -1, dtype=np.int64)
    write = _write_slots(plan.levels, m)
    if write is not None and write.shape == (n,):
        owner[write] = np.arange(n, dtype=np.int64)
    return verify_level_layout(
        plan.levels, owner, None, cell_space=True, loop_order=False, where=where
    )


def _write_slots(levels: Any, slots: int) -> Optional[np.ndarray]:
    """A layout's write slots as int64, or ``None`` when they leave
    ``[0, slots)`` -- a one-range layout's checked by its bounds before
    its range is built."""
    start = levels.start
    if start is not None and not 0 <= start <= slots - levels.size:
        return None
    write = np.asarray(levels.write, dtype=np.int64)
    if write.size and (write.min() < 0 or write.max() >= slots):
        return None
    return write


def verify_level_layout(
    levels: Any,
    owner: np.ndarray,
    operands: Optional[Tuple[np.ndarray, Optional[np.ndarray]]],
    *,
    cell_space: bool,
    loop_order: bool = True,
    where: str = "plan",
) -> CheckReport:
    """Prove a :class:`~repro.engine.plan.LevelLayout` equivalent to the
    sequential loop: every iteration is folded once, after the
    iterations whose results it reads (LVL001-LVL005; see the module
    docstring).  One function for every plan family and segment
    length; what a slot means comes in with the arguments.

    ``owner`` maps each slot to the iteration that writes it (``-1``:
    none) -- an ordinary plan's writer map of ``g`` over its cells, a
    GIR plan's node ids (``i`` for iteration ``i``'s result, ``-1`` for
    an initial-value leaf); its written slots count the iterations.
    ``operands`` are the slots each iteration's ``f`` and ``h`` operands
    read, re-derived from the system in iteration order (``h`` ``None``:
    its own write slot); LVL004 and LVL005 compare the reads with them
    when given.  ``cell_space``: the slots are cells swept in place,
    whose kernels read every initial value in level 0 (where
    ``f_initial`` enters); else (node space) an initial-value read must
    be of a slot no iteration writes.  ``loop_order``: ``owner``'s ids
    are the loop's iterations, so the loop reads a written operand's
    result iff its writer comes first; else they are positions, and a
    written operand counts as a result iff an earlier level writes
    it."""
    report = CheckReport(subject=where)
    n, slots = int(np.count_nonzero(owner >= 0)), int(owner.shape[0])
    level_ptr = np.asarray(levels.level_ptr, dtype=np.int64)
    offsets = levels.offsets
    loc = f"{where} levels"

    report.ran()
    order, start = None, levels.start
    write = _write_slots(levels, slots)
    if write is not None and write.shape == (n,):
        order = owner[write]  # each write slot's iteration, -1: none
    seen = None
    if order is not None and (n == 0 or order.min() >= 0):
        seen = np.bincount(order, minlength=n)
    if seen is None or (n and int(seen.max()) != 1):
        it = None if seen is None else int(np.argmax(seen != 1))
        report.add(
            error(
                "LVL001",
                "the level order is not a permutation of the iterations"
                + (
                    f": its {levels.size} write slots"
                    + ("" if start is None else f" from {start}")
                    + f" are not {n} slots that iterations write"
                    if it is None
                    else f": iteration {it} appears {int(seen[it])} times"
                ),
                where=loc,
                data={} if it is None else {"iteration": it},
            )
        )
        return report

    report.ran()
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=np.int64)
    segments = n if offsets is None else int(offsets.shape[0]) - 1
    if (
        level_ptr.ndim != 1
        or level_ptr.shape[0] < 1
        or int(level_ptr[0]) != 0
        or int(level_ptr[-1]) != segments
        or bool(np.any(np.diff(level_ptr) < 0))
        or (
            offsets is not None
            and (
                offsets.ndim != 1
                or segments < 0
                or int(offsets[0]) != 0
                or int(offsets[-1]) != n
                or bool(np.any(np.diff(offsets) <= 0))
                or levels.read_h is not None
            )
        )
    ):
        report.add(
            error(
                "LVL002",
                "segment offsets must rise strictly from 0 to "
                f"n={n} and level pointers monotonically from 0 to the "
                f"segment count {segments} (got {level_ptr.tolist()[:8]})",
                where=loc,
            )
        )
        return report

    report.ran()
    reads = [("f", np.asarray(levels.read, dtype=np.int64), segments)]
    if levels.read_h is not None:
        reads.append(("h", np.asarray(levels.read_h, dtype=np.int64), n))
    for name, read, size in reads:
        if read.shape != (size,) or (size and (read.min() < 0 or read.max() >= slots)):
            report.add(
                error(
                    "LVL004",
                    f"the {name} reads are not {size} slots in [0, {slots}) "
                    f"(got shape {read.shape})",
                    where=loc,
                )
            )
            return report
    seg_level = np.repeat(
        np.arange(level_ptr.shape[0] - 1, dtype=np.int64), np.diff(level_ptr)
    )
    head = np.arange(n, dtype=np.int64) if offsets is None else offsets[:-1]
    level = seg_level if offsets is None else np.repeat(seg_level, np.diff(offsets))
    level_of = np.empty(n, dtype=np.int64)
    level_of[order] = level
    for name, read, size in reads:
        reader = order[head] if size == segments else order
        at = seg_level if size == segments else level
        dep = owner[read]  # the iteration that writes the operand's slot
        dep_level = level_of[np.maximum(dep, 0)]
        # the loop reads its result
        earlier = (dep >= 0) & ((dep < reader) if loop_order else (dep_level < at))
        late = earlier & (dep_level >= at)
        # an initial-value read runs before any write of its slot
        late |= ~earlier & ((at != 0) if cell_space else (dep >= 0))
        if bool(late.any()):
            k = int(np.argmax(late))
            it, d = int(reader[k]), int(dep[k])
            report.add(
                error(
                    "LVL003",
                    f"iteration {it} (level {int(at[k])}) "
                    + (
                        f"reads its {name} operand from iteration {d} in "
                        f"level {int(level_of[d])}, not an earlier level: the "
                        "operand is not final when its level runs"
                        if earlier[k]
                        else f"reads slot {int(read[k])} as an initial value "
                        + (
                            "outside level 0: a writer of it in an earlier "
                            "level would overwrite it first"
                            if cell_space
                            else f"but iteration {d} writes that slot"
                        )
                    ),
                    where=loc,
                    data={"iteration": it},
                )
            )
            return report

    if operands is None:
        return report
    report.ran()
    for name, read, want in zip("fh", (levels.read, levels.read_h), operands):
        got = write if read is None else np.asarray(read, dtype=np.int64)
        # None: the write slot; the f operands: of each segment's head
        want = write if want is None else want[order if name == "h" else order[head]]
        if got is not want and not np.array_equal(got, want):
            k = int(np.argmax(got != want))
            report.add(
                error(
                    "LVL004",
                    f"segment {k} reads {name} slot {int(got[k])}, but its "
                    f"iteration {int(order[head][k] if name == 'f' else order[k])} "
                    f"reads {int(want[k])}: the fold would take another operand "
                    "than the sequential loop",
                    where=loc,
                    data={"position": k},
                )
            )
            return report
    if offsets is None:
        return report
    report.ran()
    member = np.ones(n, dtype=bool)
    member[head] = False
    member[0] = False
    after = np.flatnonzero(member)  # positions that continue a segment
    before = write[after - 1]
    bad = (operands[0][order[after]] != before) | (owner[before] >= order[after])
    if bool(bad.any()):
        k = int(after[np.argmax(bad)])
        report.add(
            error(
                "LVL005",
                f"position {k}: iteration {int(order[k])} continues a segment "
                f"after iteration {int(order[k - 1])}, but the loop's f operand "
                f"of it is slot {int(operands[0][order[k]])}, not that "
                "iteration's result: the scan would fold another trace than "
                "the sequential loop",
                where=loc,
                data={"position": k},
            )
        )
    return report


# ---------------------------------------------------------------------------
# GIR and Moebius plans
# ---------------------------------------------------------------------------


def _verify_gir(plan: Any, system: Any, report: CheckReport, maps: Any) -> None:
    n, m = int(plan.n), int(plan.m)
    report.ran()
    if plan.dispatch is not None:
        sub = verify_ordinary_schedule(plan.dispatch, system=maps, where="dispatch plan")
        if not sub.ok:
            report.add(
                error(
                    "GIR001",
                    "the nested ordinary dispatch plan failed verification",
                    where="gir",
                    data={"codes": sub.codes()},
                )
            )
        report.extend(sub)
        return
    layout, table = plan.levels, plan.table
    if (layout is None) == (table is None):
        report.add(
            error(
                "GIR005",
                "plan holds "
                + ("neither" if layout is None else "both")
                + " of the trace artifacts (a level layout or a power "
                "table): it needs exactly one",
                where="gir",
                hint="rebuild the plan from the system",
            )
        )
        return

    proj = plan.final_cell_of
    work_m = m + n if plan.renamed else m
    report.ran(2)
    if bool(plan.renamed) != (proj is not None):
        report.add(
            error(
                "SCH007",
                f"the plan says renamed={bool(plan.renamed)} but "
                + ("holds no" if proj is None else "holds a")
                + " final_cell_of: a renamed plan, and only one, projects "
                "its version cells back onto the original cells",
                where="gir",
            )
        )
        return
    if table is not None and not _verify_gir_csr(table, n, m, report):
        return
    if proj is not None:
        proj = np.asarray(proj, dtype=np.int64)
        if proj.shape != (m,) or (
            m and (int(proj.min()) < 0 or int(proj.max()) >= work_m)
        ):
            report.add(
                error(
                    "GIR002",
                    f"final_cell_of does not project {m} cells into "
                    f"[0, {work_m})",
                    where="gir",
                )
            )
            return

    # Given the system: where the iterations write (GIR013: its g, or
    # the renaming's version cells) and the dependence graph the level
    # layout and the power table are checked against.
    graph = work = None
    if system is not None and n:
        from ..core.depgraph import build_dependence_graph
        from ..core.equations import normalize_non_distinct

        report.ran()
        norm = None if system.g_is_distinct() else normalize_non_distinct(system)
        want = None if norm is None else norm.final_cell_of
        if (system.n, system.m) != (n, m) or not (
            proj is want is None or (want is not None and np.array_equal(proj, want))
        ):
            report.add(
                error(
                    "GIR013",
                    f"the plan (n={n}, m={m}, renamed={bool(plan.renamed)}) does "
                    f"not project what the system (n={system.n}, m={system.m}, "
                    f"{'repeated' if norm else 'distinct'} g) writes: its "
                    "iterations would write other cells than the loop's",
                    where="gir",
                )
            )
            return
        work = system if norm is None else norm.system
        if layout is not None:
            graph = build_dependence_graph(work)
    if layout is not None:
        owner = np.arange(n + m, dtype=np.int64)
        owner[n:] = -1  # node slots: iteration i's result; leaves unwritten
        operands = None if graph is None else (graph.target_f, graph.target_h)
        sub = verify_level_layout(
            layout, owner, operands, cell_space=False, where="gir"
        )
        report.extend(sub)
        if not sub.ok:
            return
        if graph is not None:
            report.add(
                info(
                    "IR000",
                    f"level layout matches the dependence graph on all {n} "
                    "iterations",
                    where="gir",
                )
            )
    if table is None or work is None:
        return
    period = table.period
    report.ran()
    if not table.serves(system.op.power_period):
        report.add(
            error(
                "GIR009",
                f"the power table counts paths modulo {period}, but the "
                f"{system.op.name!r} operator's power period is "
                f"{system.op.power_period}: its exponents would power to "
                "wrong values",
                where="gir",
                hint="re-plan for this operator",
            )
        )
        return

    if n <= GIR_ORACLE_MAX_N:
        from ..core.traces import leaf_counts

        report.ran()
        oracle = leaf_counts(work)
        want = oracle if period is None else [
            _as_stored(row, period) for row in oracle
        ]
        ptr = table.row_ptr.tolist()
        cells = table.cells.tolist()
        exps = table.exponent_list()
        got = [
            dict(zip(cells[lo:hi], exps[lo:hi]))
            for lo, hi in zip(ptr[:-1], ptr[1:])
        ]
        if got != want:
            i = next(i for i in range(n) if got[i] != want[i])
            report.add(
                error(
                    "GIR004",
                    f"iteration {i}'s power table {got[i]} disagrees "
                    f"with the trace oracle {oracle[i]}",
                    where="gir",
                    data={"iteration": i},
                )
            )
            return
        report.add(
            info(
                "IR000",
                f"CAP tables match the trace oracle on all {n} iterations",
                where="gir",
            )
        )
        return

    if graph is None:
        graph = build_dependence_graph(work)
    if not _verify_gir_totals(table, graph, report):
        return
    _verify_gir_sampled(table, graph, report)


def _as_stored(counts: Dict[int, int], period: Optional[int]) -> Dict[int, int]:
    """Exact oracle counts in the form a table of ``period`` stores
    them: as is for exact tables, else their residues."""
    if period is None:
        return counts
    return {cell: residue(k, period) for cell, k in counts.items()}


def _verify_gir_csr(table: Any, n: int, m: int, report: CheckReport) -> bool:
    """GIR006/GIR002: structural integrity of the v2 CSR power table.

    Proves the flat arrays form a well-shaped table -- row pointers
    monotone from 0 to nnz, no empty trace rows, leaf cells strictly
    increasing within each row (the order the evaluators rely on) and
    inside the original array, exponents positive and, in a table
    reduced modulo ``table.period``, at most the period.  Returns False
    when a finding stops verification.
    """
    row_ptr = np.asarray(table.row_ptr, dtype=np.int64)
    cells = np.asarray(table.cells, dtype=np.int64)
    nnz = len(table.exponents)
    report.ran(5)
    if row_ptr.shape != (n + 1,) or (n >= 0 and int(row_ptr[0]) != 0):
        report.add(
            error(
                "GIR006",
                f"row_ptr{row_ptr.shape} does not start a {n}-row table "
                "at 0",
                where="gir",
                hint="rebuild the plan; do not edit serialized plans by hand",
            )
        )
        return False
    lengths = np.diff(row_ptr)
    if lengths.size and int(lengths.min()) < 0:
        bad = int(np.argmax(lengths < 0))
        report.add(
            error(
                "GIR006",
                f"row pointers decrease at row {bad} "
                f"({int(row_ptr[bad])} -> {int(row_ptr[bad + 1])})",
                where="gir",
                data={"row": bad},
            )
        )
        return False
    if int(row_ptr[-1]) != nnz or cells.shape != (nnz,):
        report.add(
            error(
                "GIR006",
                f"row_ptr closes the table at {int(row_ptr[-1])} but it "
                f"holds {nnz} exponent(s) / {cells.shape[0]} cell(s)",
                where="gir",
            )
        )
        return False
    if lengths.size and int(lengths.min()) == 0:
        bad = int(np.argmax(lengths == 0))
        report.add(
            error(
                "GIR006",
                f"row {bad} is an empty trace (its cell was never "
                "assigned); evaluation would fail",
                where="gir",
                data={"row": bad},
            )
        )
        return False
    if nnz > 1:
        # Strictly increasing within each row: adjacent-pair diffs,
        # masking out the positions where a new row starts.
        d = np.diff(cells)
        mask = np.ones(nnz - 1, dtype=bool)
        interior = row_ptr[1:-1]
        starts = interior[(interior > 0) & (interior < nnz)] - 1
        mask[starts] = False
        if bool(np.any(d[mask] <= 0)):
            j = int(np.nonzero(mask & (d <= 0))[0][0])
            row = int(np.searchsorted(row_ptr, j, side="right")) - 1
            report.add(
                error(
                    "GIR006",
                    f"row {row} cells are not strictly increasing at "
                    f"entry {j} ({int(cells[j])} then {int(cells[j + 1])})",
                    where="gir",
                    data={"row": row, "entry": j},
                )
            )
            return False
    if nnz and (int(cells.min()) < 0 or int(cells.max()) >= m):
        j = int(np.argmax((cells < 0) | (cells >= m)))
        report.add(
            error(
                "GIR002",
                f"table entry {j} references cell {int(cells[j])}, "
                f"outside the original array [0, {m})",
                where="gir",
                data={"entry": j},
            )
        )
        return False
    exps = table.exponents
    if exps.size and bool(np.any(exps < 1)):
        j = int(np.argmax(exps < 1))
        report.add(
            error(
                "GIR002",
                f"table entry {j} carries exponent {exps[j]}; "
                "powers must be >= 1",
                where="gir",
                data={"entry": j},
            )
        )
        return False
    period = table.period
    if period is not None and exps.size and bool(np.any(exps > period)):
        j = int(np.argmax(exps > period))
        report.add(
            error(
                "GIR006",
                f"table entry {j} carries exponent {exps[j]}, above the "
                f"period {period} the table is reduced by",
                where="gir",
                data={"entry": j},
            )
        )
        return False
    return True


def _verify_gir_totals(table: Any, graph: Any, report: CheckReport) -> bool:
    """GIR007: unbounded leaf-count drift oracle.

    The total number of leaf paths from final node ``i`` equals the sum
    of row ``i``'s exponents; both sides are recomputed modulo a prime
    -- the graph side by an O(n) forward DP over the dependence DAG,
    the table side by one segmented sum -- so the sweep stays linear at
    any ``n``.  Catches any mutation that changes a multiplicity or
    drops/duplicates a factor, with false-accept probability 1/p per
    row.  A table reduced modulo ``table.period`` knows its counts only
    modulo that period, so both sides are taken modulo it instead.
    """
    n = graph.n
    P = _GIR_TOTAL_MOD if table.period is None else table.period
    report.ran()
    vals = np.ones(n + graph.m, dtype=np.int64).tolist()
    tf = graph.target_f.tolist()
    th = graph.target_h.tolist()
    for i in range(n):
        # targets are strictly earlier finals or leaves (init 1)
        vals[i] = (vals[tf[i]] + vals[th[i]]) % P
    widest = int(np.diff(table.row_ptr).max())
    # exact per-row sums: int64 while they cannot overflow
    exps_mod = (table.exponents % P).astype(
        np.int64 if widest * P < 2**63 else object
    )
    sums = np.add.reduceat(exps_mod, table.row_ptr[:-1]) % P
    expect = np.asarray(vals[:n], dtype=np.int64)
    if not np.array_equal(sums, expect):
        bad = int(np.argmax(sums != expect))
        report.add(
            error(
                "GIR007",
                f"row {bad}'s exponents sum to {int(sums[bad])} (mod "
                f"{P}) but the dependence graph has {int(expect[bad])} "
                "leaf paths: the power table drifted from the traces",
                where="gir",
                data={"row": bad},
            )
        )
        return False
    report.add(
        info(
            "IR000",
            f"power-table totals match the dependence graph on all {n} "
            "rows (modular oracle)",
            where="gir",
        )
    )
    return True


def _verify_gir_sampled(table: Any, graph: Any, report: CheckReport) -> None:
    """GIR008: exact leaf-count re-derivation of sampled rows.

    Rebuilds the full ``{cell: multiplicity}`` dict of up to
    :data:`GIR_SAMPLE_ROWS` evenly spaced rows by memoized DP over the
    dependence DAG (exact big-int arithmetic, iterative so chain depth
    cannot overflow the stack) and requires byte-equality with the
    table rows (after the residue rule, for a reduced table).  Work is
    bounded by :data:`GIR_SAMPLE_BUDGET`
    accumulated dict entries; rows past the budget are skipped with an
    info finding rather than silently passed.
    """
    n = graph.n
    sample = sorted(
        set(np.linspace(0, n - 1, GIR_SAMPLE_ROWS, dtype=np.int64).tolist())
    )
    tf = graph.target_f.tolist()
    th = graph.target_h.tolist()
    memo: Dict[int, Dict[int, int]] = {}
    budget = GIR_SAMPLE_BUDGET
    checked = 0
    for root in sample:
        if budget <= 0:
            break
        stack = [int(root)]
        while stack and budget > 0:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            deps = [
                t
                for t in (tf[node], th[node])
                if t < n and t not in memo
            ]
            if deps:
                stack.extend(deps)
                continue
            acc: Dict[int, int] = {}
            for t in (tf[node], th[node]):
                if t >= n:
                    cell = t - n
                    acc[cell] = acc.get(cell, 0) + 1
                else:
                    for cell, k in memo[t].items():
                        acc[cell] = acc.get(cell, 0) + k
            memo[node] = acc
            budget -= len(acc)
            stack.pop()
        if int(root) not in memo:
            break
        report.ran()
        got = dict(table.row_items(int(root)))
        if got != _as_stored(memo[int(root)], table.period):
            report.add(
                error(
                    "GIR008",
                    f"sampled row {int(root)} disagrees with the exact "
                    "leaf-count oracle",
                    where="gir",
                    data={"row": int(root)},
                )
            )
            return
        checked += 1
    if checked < len(sample):
        report.add(
            info(
                "IR000",
                f"sampled oracle verified {checked}/{len(sample)} rows "
                "before exhausting its work budget",
                where="gir",
            )
        )
    else:
        report.add(
            info(
                "IR000",
                f"{checked} sampled rows match the exact leaf-count "
                "oracle",
                where="gir",
            )
        )


def verify_plan(
    plan: Any,
    problem: Any = None,
    *,
    system: Any = None,
    where: Optional[str] = None,
) -> CheckReport:
    """Verify any plan family; the ``repro check`` CLI and the
    ``verify_plan=`` engine kwarg both land here.

    ``problem`` (when given) pins the fingerprint (SCH008).  ``system``
    enables the deep GIR oracle check, and gives an ordinary or Moebius
    plan -- which holds no maps -- the ``g`` / ``f`` its layout's reads
    (LVL004 / LVL005) and a rounds plan's ``pred`` (SCH006) are proved
    against; without it, ``problem``'s maps do.
    """
    maps = system if system is not None else problem
    family = getattr(plan, "family", None)
    label = where or f"{family or 'plan'} {str(plan.fingerprint)[:12]}"
    report = CheckReport(subject=label)

    if problem is not None:
        report.ran()
        want = problem.fingerprint()
        if str(plan.fingerprint) != want:
            report.add(
                error(
                    "SCH008",
                    f"plan fingerprint {str(plan.fingerprint)[:12]}... does "
                    f"not match the problem ({want[:12]}...): the plan was "
                    "built for different index maps",
                    where=label,
                    hint="rebuild or re-fetch the plan for this problem",
                )
            )
            return report

    if family in ("ordinary", "moebius"):
        report.extend(verify_ordinary_schedule(plan, system=maps, where=label))
    elif family == "gir":
        _verify_gir(plan, system, report, maps)
    else:
        report.add(
            error("SCH007", f"unknown plan family {family!r}", where=label)
        )
    return report


def verify_or_raise(
    plan: Any,
    problem: Any = None,
    *,
    system: Any = None,
    where: Optional[str] = None,
) -> CheckReport:
    """:func:`verify_plan`, raising
    :class:`~repro.errors.PlanVerificationError` (exit code 8) when any
    error-severity finding is present."""
    report = verify_plan(plan, problem, system=system, where=where)
    if not report.ok:
        from ..errors import PlanVerificationError

        first = report.errors[0]
        raise PlanVerificationError(
            f"plan verification failed: {first.describe()} "
            f"({len(report.errors)} error finding(s))",
            report=report,
        )
    return report
