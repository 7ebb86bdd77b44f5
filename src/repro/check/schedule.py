"""Static schedule verification: prove a plan race-free without running it.

The value engines (``numpy`` / ``python`` / batch) replay an
:class:`~repro.engine.plan.OrdinaryPlan`'s round schedule verbatim:
per round they gather ``val[src]`` from the pre-round state, then
scatter ``op(val[src], val[active])`` into ``val[active]``.  This
module proves -- from the index structure alone, for *any* plan
including one rehydrated via
:func:`~repro.engine.plan.plan_from_dict` -- that such a replay is
race-free and trace-equivalent to the sequential loop:

1. **Write-conflict freedom** (SCH001): within a round, no iteration
   id appears twice in the active set, so the scatter has no
   write-write race under any worker interleaving.
2. **Happens-before** (SCH002/SCH003): the symbolic pointer state
   ``ptr`` (initialized to the Lemma-1 predecessor array) is replayed
   round by round.  Every gather must read exactly the cell holding
   the iteration's *current* predecessor segment -- a source that is
   not ``ptr[active]`` would read a cell whose chain segment does not
   abut the writer's, i.e. a value not finalized for that concatenation.
3. **Trace equivalence** (SCH004/SCH006): ``pred`` is independently
   recomputed from ``(g, f)`` (Lemma 1), and the replay must finish
   with every chain closed (``ptr == -1``).  By induction each round
   preserves the invariant "``val[g(i)]`` holds the product of the
   trace segment ``(ptr[i], i]``", so a complete replay computes
   exactly the sequential traces -- in the symbolic index domain, for
   every value assignment.

The verifier accepts *any* correct schedule (including lazy variants
that delay jumps), not just the canonical one the planner emits; the
adversarial mutation suite (:mod:`repro.check.mutate`) relies on this
being a semantic -- not byte-comparison -- check.

A chain plan (``plan.chains``: the work-efficient layout the NumPy
chain kernel runs) is proved by :func:`verify_chain_layout` instead:
the permutation is a bijection of the iterations (CHN001), the segment
and level offsets are monotone and close at ``n`` and at the segment
count (CHN002), consecutive members of a segment are ``pred``-linked
(CHN003), and every segment head is seeded by a terminal in level 0
or by an iteration in an earlier level (CHN004).  Each level then
folds exactly the sequential loop's operands, in its order.  The round
rules above check a chain plan's round schedule only when the plan
carries one: the consumers that run rounds build it lazily from the
verified ``pred`` with the planner's own builder.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from .findings import CheckReport, error, info, warning

__all__ = [
    "verify_plan",
    "verify_ordinary_schedule",
    "verify_chain_layout",
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
# Ordinary round schedules
# ---------------------------------------------------------------------------


def verify_ordinary_schedule(plan: Any, *, where: str = "plan") -> CheckReport:
    """Prove an :class:`~repro.engine.plan.OrdinaryPlan` race-free and
    trace-equivalent to the sequential loop (see module docstring).

    A chain plan's layout is always proved; its round schedule only
    when the plan carries one (a schedule built lazily comes from the
    verified ``pred`` through the planner's own builder)."""
    report = CheckReport(subject=where)
    n, m = int(plan.n), int(plan.m)
    g = np.asarray(plan.g, dtype=np.int64)
    f = np.asarray(plan.f, dtype=np.int64)
    pred = np.asarray(plan.pred, dtype=np.int64)

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
    for name, arr, hi in (("g", g, m), ("f", f, m)):
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= hi):
            bad = int(np.argmax((arr < 0) | (arr >= hi)))
            report.add(
                error(
                    "SCH005",
                    f"{name} maps iteration {bad} to cell {int(arr[bad])}, "
                    f"outside the array domain [0, {hi})",
                    where=where,
                    data={"map": name, "iteration": bad},
                )
            )
    if pred.size and (int(pred.min()) < -1 or int(pred.max()) >= n):
        bad = int(np.argmax((pred < -1) | (pred >= n)))
        report.add(
            error(
                "SCH005",
                f"pred[{bad}] = {int(pred[bad])} outside [-1, {n})",
                where=where,
                data={"map": "pred", "iteration": bad},
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
    cand = writer[f]
    expected_pred = np.where(cand < idx, cand, -1)
    if not np.array_equal(expected_pred, pred):
        bad = int(np.argmax(expected_pred != pred))
        report.add(
            error(
                "SCH006",
                f"pred[{bad}] = {int(pred[bad])} but Lemma 1 gives "
                f"{int(expected_pred[bad])} from (g, f); the schedule "
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

    chains = getattr(plan, "chains", None)
    if chains is not None:
        report.extend(verify_chain_layout(chains, pred, where=where))
        if not report.ok or not plan.has_steps:
            return report

    # -- symbolic pointer replay --------------------------------------
    ptr = pred.copy()
    for r, (active_raw, src_raw) in enumerate(plan.steps):
        active = np.asarray(active_raw, dtype=np.int64)
        src = np.asarray(src_raw, dtype=np.int64)
        loc = f"{where} round {r}"
        report.ran(4)

        if active.shape != src.shape or active.ndim != 1:
            report.add(
                error(
                    "SCH007",
                    f"round arrays disagree: active{active.shape} vs "
                    f"src{src.shape}",
                    where=loc,
                )
            )
            return report
        if active.size == 0:
            report.add(
                warning(
                    "SCH007",
                    "empty round (no active iterations); the executors "
                    "tolerate it but the planner never emits one",
                    where=loc,
                )
            )
            continue
        lo = int(min(active.min(), src.min()))
        hi = int(max(active.max(), src.max()))
        if lo < 0 or hi >= n:
            report.add(
                error(
                    "SCH005",
                    f"schedule references iteration {lo if lo < 0 else hi} "
                    f"outside [0, {n})",
                    where=loc,
                )
            )
            return report

        # Write-conflict freedom.  Planner rounds come from np.nonzero
        # and are strictly increasing; fall back to counting only when
        # that cheap proof fails.
        if active.size > 1 and not bool(np.all(np.diff(active) > 0)):
            uniq, counts = np.unique(active, return_counts=True)
            if bool(np.any(counts > 1)):
                dup = int(uniq[np.argmax(counts > 1)])
                report.add(
                    error(
                        "SCH001",
                        f"iteration {dup} (cell {int(g[dup])}) appears "
                        f"{int(counts.max())} times in one round's write "
                        "set: a write-write race under parallel replay",
                        where=loc,
                        data={"iteration": dup, "cell": int(g[dup])},
                    )
                )
                return report

        cur = ptr[active]
        if int(cur.min()) < 0:
            bad = int(active[np.argmax(cur < 0)])
            report.add(
                error(
                    "SCH003",
                    f"iteration {bad} is active but its chain is already "
                    "complete; the gather would re-concatenate a "
                    "finalized value",
                    where=loc,
                    data={"iteration": bad},
                )
            )
            return report
        if not np.array_equal(src, cur):
            k = int(np.argmax(src != cur))
            report.add(
                error(
                    "SCH002",
                    f"iteration {int(active[k])} gathers from iteration "
                    f"{int(src[k])} but its current predecessor is "
                    f"{int(cur[k])}: the read cell's trace segment is "
                    "not adjacent (happens-before violation)",
                    where=loc,
                    data={
                        "iteration": int(active[k]),
                        "got": int(src[k]),
                        "expected": int(cur[k]),
                    },
                )
            )
            return report

        # Synchronous pointer jump: gather pre-round ptr[src], then
        # scatter -- exactly the two-phase gather/combine the engines
        # implement.
        ptr[active] = ptr[src]

    # -- completeness --------------------------------------------------
    report.ran()
    open_mask = ptr >= 0
    if bool(open_mask.any()):
        first = int(np.argmax(open_mask))
        report.add(
            error(
                "SCH004",
                f"{int(open_mask.sum())} chain(s) still open after the "
                f"last round (first: iteration {first}); the replay "
                "would return partial traces",
                where=where,
                data={"open": int(open_mask.sum()), "first": first},
            )
        )
    return report


def verify_chain_layout(
    chains: Any, pred: np.ndarray, *, where: str = "plan"
) -> CheckReport:
    """Prove a :class:`~repro.engine.plan.ChainLayout` equivalent to the
    sequential loop over the (already verified) ``pred`` array: every
    iteration is scanned once, after its predecessor (CHN001-CHN004;
    see the module docstring)."""
    report = CheckReport(subject=where)
    n = int(pred.shape[0])
    order = np.asarray(chains.order, dtype=np.int64)
    offsets = np.asarray(chains.offsets, dtype=np.int64)
    level_ptr = np.asarray(chains.level_ptr, dtype=np.int64)
    loc = f"{where} chains"

    report.ran()
    if order.shape != (n,) or (n and (order.min() < 0 or order.max() >= n)):
        report.add(
            error(
                "CHN001",
                f"chain permutation has shape {order.shape} / entries outside "
                f"[0, {n}); it must list each of the {n} iterations once",
                where=loc,
            )
        )
        return report
    seen = np.bincount(order, minlength=n)
    if n and int(seen.max()) != 1:
        it = int(np.argmax(seen != 1))
        report.add(
            error(
                "CHN001",
                f"iteration {it} appears {int(seen[it])} times in the chain "
                "permutation: it would be scanned "
                + ("never" if seen[it] == 0 else "more than once"),
                where=loc,
                data={"iteration": it, "count": int(seen[it])},
            )
        )
        return report

    report.ran()
    segments = int(offsets.shape[0]) - 1
    if (
        offsets.ndim != 1
        or segments < (1 if n else 0)
        or int(offsets[0]) != 0
        or int(offsets[-1]) != n
        or bool(np.any(np.diff(offsets) <= 0))
        or level_ptr.ndim != 1
        or level_ptr.shape[0] < 1
        or int(level_ptr[0]) != 0
        or int(level_ptr[-1]) != segments
        or bool(np.any(np.diff(level_ptr) <= 0))
    ):
        report.add(
            error(
                "CHN002",
                "chain offsets must rise strictly from 0 to n "
                f"(got {offsets[:3].tolist()}..{offsets[-1:].tolist()} for "
                f"n={n}) and level offsets from 0 to the segment count "
                f"{segments} (got {level_ptr.tolist()[:8]})",
                where=loc,
            )
        )
        return report

    report.ran()
    seg_start = np.zeros(n, dtype=bool)
    seg_start[offsets[:-1]] = True
    members = np.flatnonzero(~seg_start)
    linked = pred[order[members]] == order[members - 1]
    if not bool(linked.all()):
        k = int(members[np.argmax(~linked)])
        it, prev = int(order[k]), int(order[k - 1])
        report.add(
            error(
                "CHN003",
                f"chain position {k}: iteration {it} follows {prev} in its "
                f"segment but reads pred {int(pred[it])}; the scan would "
                "fold a different trace than the sequential loop",
                where=loc,
                data={"position": k, "iteration": it, "expected": int(pred[it])},
            )
        )
        return report

    report.ran()
    level_of_seg = np.repeat(
        np.arange(level_ptr.shape[0] - 1, dtype=np.int64), np.diff(level_ptr)
    )
    level_of_it = np.empty(n, dtype=np.int64)
    level_of_it[order] = np.repeat(level_of_seg, np.diff(offsets))
    heads = order[offsets[:-1]]
    seed = pred[heads]
    root = seed < 0
    seed_level = np.where(root, -1, level_of_it[np.maximum(seed, 0)])
    bad = np.where(root, level_of_seg != 0, seed_level >= level_of_seg)
    if bool(bad.any()):
        s = int(np.argmax(bad))
        head = int(heads[s])
        report.add(
            error(
                "CHN004",
                f"segment {s} (head {head}, level {int(level_of_seg[s])}) "
                + (
                    "starts at a terminal outside level 0"
                    if root[s]
                    else f"is seeded by iteration {int(seed[s])} in level "
                    f"{int(seed_level[s])}, not an earlier level"
                )
                + ": its seed is not final when the level runs",
                where=loc,
                data={"segment": s, "head": head},
            )
        )
    return report


# ---------------------------------------------------------------------------
# GIR and Moebius plans
# ---------------------------------------------------------------------------


def _verify_gir(plan: Any, system: Any, report: CheckReport) -> None:
    n, m = int(plan.n), int(plan.m)
    report.ran()
    if plan.dispatch is not None:
        sub = verify_ordinary_schedule(plan.dispatch, where="dispatch plan")
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
    if plan.out_cells is None or plan.table is None:
        report.add(
            error(
                "GIR005",
                "plan has neither a dispatch plan nor CAP artifacts "
                "(out_cells/table)",
                where="gir",
                hint="rebuild the plan from the system",
            )
        )
        return

    out_cells = np.asarray(plan.out_cells, dtype=np.int64)
    table = plan.table
    work_m = m + n if plan.renamed else m
    report.ran(3)
    if out_cells.shape != (n,):
        report.add(
            error(
                "SCH007",
                f"CAP artifacts disagree with n={n}: out_cells"
                f"{out_cells.shape}",
                where="gir",
            )
        )
        return
    if n and (int(out_cells.min()) < 0 or int(out_cells.max()) >= work_m):
        report.add(
            error(
                "GIR002",
                f"out_cells leave the working array [0, {work_m})",
                where="gir",
            )
        )
        return
    if np.unique(out_cells).size != n:
        report.add(
            error(
                "GIR003",
                "output cells are not distinct; two iterations would "
                "race on one result cell",
                where="gir",
                hint="the planner renames non-distinct g before CAP",
            )
        )
        return
    if not _verify_gir_csr(table, n, m, report):
        return
    if plan.final_cell_of is not None:
        report.ran()
        proj = np.asarray(plan.final_cell_of, dtype=np.int64)
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

    # Deep equivalence against the dependence-graph oracle, in three
    # tiers: the exact full oracle (GIR004, bounded), the unbounded
    # modular total-path-count sweep (GIR007, O(n + nnz)), and exact
    # re-derivation of sampled rows (GIR008) when the full oracle is
    # out of budget.
    if system is None or n == 0:
        return
    from ..core.equations import normalize_non_distinct

    work = system
    if plan.renamed:
        work = normalize_non_distinct(system).system

    if n <= GIR_ORACLE_MAX_N:
        from ..core.traces import leaf_counts

        report.ran()
        oracle = leaf_counts(work)
        for i in range(n):
            got = dict(table.row_items(i))
            if got != oracle[i]:
                report.add(
                    error(
                        "GIR004",
                        f"iteration {i}'s power table {got} disagrees "
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

    from ..core.depgraph import build_dependence_graph

    graph = build_dependence_graph(work)
    if not _verify_gir_totals(table, graph, report):
        return
    _verify_gir_sampled(table, graph, report)


def _verify_gir_csr(table: Any, n: int, m: int, report: CheckReport) -> bool:
    """GIR006/GIR002: structural integrity of the v2 CSR power table.

    Proves the flat arrays form a well-shaped table -- row pointers
    monotone from 0 to nnz, no empty trace rows, leaf cells strictly
    increasing within each row (the order the evaluators rely on) and
    inside the original array, exponents positive.  Returns False when
    a finding stops verification.
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
    return True


def _verify_gir_totals(table: Any, graph: Any, report: CheckReport) -> bool:
    """GIR007: unbounded leaf-count drift oracle.

    The total number of leaf paths from final node ``i`` equals the sum
    of row ``i``'s exponents; both sides are recomputed modulo a prime
    -- the graph side by an O(n) forward DP over the dependence DAG,
    the table side by one segmented sum -- so the sweep stays linear at
    any ``n``.  Catches any mutation that changes a multiplicity or
    drops/duplicates a factor, with false-accept probability 1/p per
    row.
    """
    n = graph.n
    P = _GIR_TOTAL_MOD
    report.ran()
    vals = np.ones(n + graph.m, dtype=np.int64).tolist()
    tf = graph.target_f.tolist()
    th = graph.target_h.tolist()
    for i in range(n):
        # targets are strictly earlier finals or leaves (init 1)
        vals[i] = (vals[tf[i]] + vals[th[i]]) % P
    exps_mod = (table.exponents % P).astype(np.int64)
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
    table rows.  Work is bounded by :data:`GIR_SAMPLE_BUDGET`
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
        if got != memo[int(root)]:
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
    enables the deep GIR oracle check.
    """
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

    if family == "ordinary":
        report.extend(verify_ordinary_schedule(plan, where=label))
    elif family == "moebius":
        report.extend(
            verify_ordinary_schedule(plan.ordinary, where=f"{label} ordinary")
        )
        report.ran()
        if (int(plan.n), int(plan.m)) != (int(plan.ordinary.n), int(plan.ordinary.m)):
            report.add(
                error(
                    "SCH007",
                    "Moebius plan dims disagree with its nested ordinary plan",
                    where=label,
                )
            )
    elif family == "gir":
        _verify_gir(plan, system, report)
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
