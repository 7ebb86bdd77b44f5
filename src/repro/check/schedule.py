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

A chain plan (``plan.chains``: arithmetic runs, the work-efficient
layout the NumPy chain kernels scan) is proved by
:func:`verify_chain_layout` instead: the run arrays are one per run
and the run and level offsets are monotone and close at ``n`` and at
the run count (CHN002), the runs cover every iteration once (CHN001),
consecutive members of a run are ``pred``-linked (CHN003), and every
run head is seeded by a terminal in level 0 or by the chain position
of its ``pred`` in an earlier level (CHN004).  Each level then folds
exactly the sequential loop's operands, in its order.  The round
rules above check a chain plan's round schedule only when the plan
carries one: the consumers that run rounds build it lazily from the
verified ``pred`` with the planner's own builder.

A level plan (``plan.levels``: the cells each iteration writes and
reads, grouped by its depth in the predecessor forest; the NumPy level
kernels sweep it in cell space) is proved by
:func:`verify_forest_levels`: the write cells name every iteration
once, so the level order is a permutation (LVL001); the level
pointers rise monotonically from 0 and close at ``n`` (LVL002); every
root runs in level 0 -- reading its ``f`` operand before any write,
so the later writer of that cell is never in an earlier level -- and
every other iteration's predecessor in an earlier level (LVL003,
happens-before); and the read cells are ``f`` in level order (LVL004).
Each level then folds exactly the loop's operands.  A level plan keeps
no ``pred`` (the verifier re-derives it from ``(g, f)``); a stored
one, like its round schedule, is checked only when present.

A GIR level plan (``plan.levels``: the dependence graph with its
iterations grouped by level) is proved the same way: the level order
is a permutation of the iterations (GIR010), the level pointers are
monotone and close at ``n`` (GIR011), every operand is an iteration
in an earlier level or an original cell (GIR012, GIR002) and -- given
the system -- the operand targets and output cells are the ones
re-derived from it (GIR013).  Each level then folds exactly the
loop's operands.  The power-table rules (GIR002-GIR009) check a level
plan's table only once it is built.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..core.cap import residue
from .findings import CheckReport, error, info, warning

__all__ = [
    "verify_plan",
    "verify_ordinary_schedule",
    "verify_chain_layout",
    "verify_forest_levels",
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

    A chain or level plan's layout is always proved; its round
    schedule and stored ``pred`` only when the plan carries them (a
    lazily built one comes from ``(g, f)`` through the planner's own
    builders)."""
    report = CheckReport(subject=where)
    n, m = int(plan.n), int(plan.m)
    g = np.asarray(plan.g, dtype=np.int64)
    f = np.asarray(plan.f, dtype=np.int64)
    stored = plan.has_pred  # never build a lazy pred
    pred = np.asarray(plan.pred if stored else np.full(g.shape, -1), dtype=np.int64)

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
    expected_pred = writer[f]
    expected_pred[expected_pred >= idx] = -1
    if stored and not np.array_equal(expected_pred, pred):
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

    pred = expected_pred
    chains = getattr(plan, "chains", None)
    levels = getattr(plan, "levels", None)
    if chains is not None or levels is not None:
        if chains is not None:
            report.extend(verify_chain_layout(chains, pred, where=where))
        else:
            report.extend(verify_forest_levels(levels, f, pred, writer, where=where))
        if not report.ok or not plan.has_steps:
            return report

    # -- symbolic pointer replay --------------------------------------
    ptr = pred.copy()
    for r, (active_raw, src_raw) in enumerate(plan.steps):
        active = np.asarray(active_raw, dtype=np.int64)
        src = np.asarray(src_raw, dtype=np.int64)
        report.ran(4)

        # A planner round passes in one sweep: strictly increasing
        # active ids inside [0, n) are race-free, and since every ptr
        # value lies in [-1, n), ``src == ptr[active] >= 0`` bounds
        # src as well.  Anything else takes the checks below, which
        # name the first rule it breaks.
        if (
            active.ndim == 1
            and active.shape == src.shape
            and active.size
            and active[0] >= 0
            and active[-1] < n
            and (active.size == 1 or bool((active[1:] > active[:-1]).all()))
        ):
            cur = ptr[active]
            if np.array_equal(src, cur) and cur.min() >= 0:
                ptr[active] = ptr[cur]
                continue

        loc = f"{where} round {r}"
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
    from ..engine.plan import ChainLayout  # the order as the kernels derive it

    report = CheckReport(subject=where)
    n = int(pred.shape[0])
    names = ChainLayout._ARRAYS
    arrays = [np.asarray(getattr(chains, k), dtype=np.int64) for k in names]
    heads, strides, seeds, offsets, level_ptr = arrays
    loc = f"{where} chains"

    report.ran()
    segments = int(offsets.shape[0]) - 1
    if (
        offsets.ndim != 1
        or segments < (1 if n else 0)
        or any(arr.shape != (segments,) for arr in (heads, strides, seeds))
        or bool(np.any((strides < 1) | (strides > max(n, 1))))
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
                f"n={n}) with one head, stride (1 .. n) and seed per run, "
                f"and level offsets from 0 to the run count {segments} (got "
                f"{level_ptr.tolist()[:8]})",
                where=loc,
            )
        )
        return report

    report.ran()
    order = ChainLayout(*arrays).order
    inside = n == 0 or (int(order.min()) >= 0 and int(order.max()) < n)
    hit = np.zeros(n, dtype=bool)
    if inside:  # n entries in range cover every iteration iff none repeats
        hit[order] = True
    if not (inside and bool(hit.all())):
        seen = np.bincount(order[(order >= 0) & (order < n)], minlength=n)
        it = int(np.argmax(seen != 1))  # some iteration is missed or repeated
        report.add(
            error(
                "CHN001",
                f"the chain runs scan iteration {it} {int(seen[it])} times; "
                "each must be scanned exactly once",
                where=loc,
                data={"iteration": it},
            )
        )
        return report

    report.ran()
    # position k > 0 continues its run unless a run starts there
    linked = pred[order[1:]] == order[:-1]
    linked[offsets[1:-1] - 1] = True
    if not bool(linked.all()):
        k = int(np.argmax(~linked)) + 1
        it, prev = int(order[k]), int(order[k - 1])
        report.add(
            error(
                "CHN003",
                f"chain position {k}: iteration {it} follows {prev} in its "
                f"run but reads pred {int(pred[it])}; the scan would fold a "
                "different trace than the sequential loop",
                where=loc,
                data={"position": k, "iteration": it, "expected": int(pred[it])},
            )
        )
        return report

    report.ran()
    level_of_seg = np.repeat(
        np.arange(level_ptr.shape[0] - 1, dtype=np.int64), np.diff(level_ptr)
    )
    start = offsets[level_ptr[level_of_seg]]  # each run's level starts here
    want = pred[heads]
    root = want < 0
    named = order[np.clip(seeds, 0, max(n - 1, 0))]
    ok = np.where(
        root,
        (seeds == -1) & (level_of_seg == 0),
        (seeds >= 0) & (seeds < start) & (named == want),
    )
    if not bool(ok.all()):
        s = int(np.argmin(ok))
        head = int(heads[s])
        report.add(
            error(
                "CHN004",
                f"run {s} (head {head}, level {int(level_of_seg[s])}) "
                + (
                    "starts at a terminal outside level 0 or names a seed"
                    if root[s]
                    else f"reads pred {int(want[s])}, but its seed position "
                    f"{int(seeds[s])} is not that iteration in an earlier level"
                )
                + ": its seed is not final when the level runs",
                where=loc,
                data={"segment": s, "head": head},
            )
        )
    return report


def verify_forest_levels(
    levels: Any,
    f: np.ndarray,
    pred: np.ndarray,
    writer: np.ndarray,
    *,
    where: str = "plan",
) -> CheckReport:
    """Prove a :class:`~repro.engine.plan.ForestLevels` equivalent to
    the sequential loop over the (already verified) ``pred`` array and
    ``writer`` map (cell -> iteration): every iteration is swept once,
    after its predecessor (LVL001-LVL004; see the module docstring)."""
    report = CheckReport(subject=where)
    n, m = int(pred.shape[0]), int(writer.shape[0])
    write = np.asarray(levels.write_cells, dtype=np.int64)
    read = np.asarray(levels.read_cells, dtype=np.int64)
    level_ptr = np.asarray(levels.level_ptr, dtype=np.int64)
    loc = f"{where} levels"

    report.ran()
    order = None
    if write.shape == (n,) and (n == 0 or (write.min() >= 0 and write.max() < m)):
        order = writer[write]  # each write cell's iteration, -1: none
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
                    ": its write cells name a cell no iteration writes"
                    if it is None
                    else f": iteration {it} appears {int(seen[it])} times"
                ),
                where=loc,
                data={} if it is None else {"iteration": it},
            )
        )
        return report

    report.ran()
    if (
        level_ptr.ndim != 1
        or level_ptr.shape[0] < 1
        or int(level_ptr[0]) != 0
        or int(level_ptr[-1]) != n
        or bool(np.any(np.diff(level_ptr) < 0))
    ):
        report.add(
            error(
                "LVL002",
                "level pointers must rise monotonically from 0 to "
                f"n={n} (got {level_ptr.tolist()[:8]})",
                where=loc,
            )
        )
        return report

    report.ran()
    level_of = np.empty(n, dtype=np.int64)
    level_of[order] = np.repeat(
        np.arange(level_ptr.shape[0] - 1, dtype=np.int64), np.diff(level_ptr)
    )
    root = pred < 0
    late = np.where(root, level_of != 0, level_of[np.maximum(pred, 0)] >= level_of)
    if bool(late.any()):
        i = int(np.argmax(late))
        report.add(
            error(
                "LVL003",
                f"iteration {i} (level {int(level_of[i])}) "
                + (
                    "reads an initial value outside level 0: a writer of "
                    "its f cell in an earlier level would overwrite it first"
                    if root[i]
                    else f"reads its predecessor {int(pred[i])} from level "
                    f"{int(level_of[pred[i]])}, not an earlier level: the "
                    "operand is not final when its level runs"
                ),
                where=loc,
                data={"iteration": i},
            )
        )
        return report

    report.ran()
    if read.shape != (n,) or not np.array_equal(read, f[order]):
        k = 0 if read.shape != (n,) else int(np.argmax(read != f[order]))
        report.add(
            error(
                "LVL004",
                f"level position {k} reads cell "
                f"{int(read[k]) if k < read.size else 'none'}, but its "
                f"iteration {int(order[k]) if n else 'none'} reads f = "
                f"{int(f[order[k]]) if n else 'none'}: the sweep would fold "
                "another operand than the sequential loop",
                where=loc,
                data={"position": k},
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
    layout = plan.levels
    has_table = plan.has_table  # a level plan's lazy table: once built
    if plan.out_cells is None or (layout is None and not has_table):
        report.add(
            error(
                "GIR005",
                "plan has neither a dispatch plan nor trace artifacts "
                "(out_cells and a level layout or power table)",
                where="gir",
                hint="rebuild the plan from the system",
            )
        )
        return

    out_cells = np.asarray(plan.out_cells, dtype=np.int64)
    table = plan.table if has_table else None
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
    if layout is not None and not _verify_gir_levels(layout, n, m, report):
        return
    if table is not None and not _verify_gir_csr(table, n, m, report):
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
    from ..core.depgraph import build_dependence_graph
    from ..core.equations import normalize_non_distinct

    work = system
    if plan.renamed:
        work = normalize_non_distinct(system).system
    graph = None
    report.ran()
    if not np.array_equal(out_cells, work.g):
        wrong = out_cells != work.g if work.n == n else np.ones(n, dtype=bool)
        i = int(np.argmax(wrong))
        report.add(
            error(
                "GIR013",
                f"iteration {i} writes cell {int(out_cells[i])}, but the "
                f"system's (working) g has {work.n} iterations and assigns "
                f"{int(work.g[i]) if i < work.n else 'none'}",
                where="gir",
                data={"iteration": i},
            )
        )
        return
    if layout is not None:
        graph = build_dependence_graph(work)
        if not _verify_gir_targets(layout, graph, report) or table is None:
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


def _verify_gir_levels(layout: Any, n: int, m: int, report: CheckReport) -> bool:
    """GIR010-GIR012: the level layout is a well-formed schedule.

    The level order lists every iteration once (GIR010); the level
    pointers rise monotonically from 0 and close at ``n`` (GIR011);
    every operand target is an iteration or one of the ``m`` original
    cells (GIR002), and an iteration operand lies in an earlier level
    (GIR012), so each level reads only values final before it runs.
    Returns False when a finding stops verification."""
    order = np.asarray(layout.order, dtype=np.int64)
    level_ptr = np.asarray(layout.level_ptr, dtype=np.int64)
    targets = [
        np.asarray(t, dtype=np.int64) for t in (layout.target_f, layout.target_h)
    ]
    loc = "gir levels"
    report.ran(4)
    if any(t.shape != (n,) for t in targets):
        report.add(
            error(
                "SCH007",
                f"level layout operand targets disagree with n={n}: "
                f"{[t.shape for t in targets]}",
                where=loc,
            )
        )
        return False
    seen = (
        np.bincount(order, minlength=n)
        if order.shape == (n,) and (n == 0 or (order.min() >= 0 and order.max() < n))
        else None
    )
    if seen is None or (n and int(seen.max()) != 1):
        it = None if seen is None else int(np.argmax(seen != 1))
        report.add(
            error(
                "GIR010",
                "the level order is not a permutation of the iterations"
                + (
                    ""
                    if it is None
                    else f": iteration {it} appears {int(seen[it])} times"
                ),
                where=loc,
                data={} if it is None else {"iteration": it},
            )
        )
        return False
    if (
        level_ptr.ndim != 1
        or level_ptr.shape[0] < 1
        or int(level_ptr[0]) != 0
        or int(level_ptr[-1]) != n
        or bool(np.any(np.diff(level_ptr) < 0))
    ):
        report.add(
            error(
                "GIR011",
                "level pointers must rise monotonically from 0 to "
                f"n={n} (got {level_ptr.tolist()[:8]})",
                where=loc,
            )
        )
        return False
    for name, t in zip(("f", "h"), targets):
        if n and (int(t.min()) < 0 or int(t.max()) >= n + m):
            i = int(np.argmax((t < 0) | (t >= n + m)))
            report.add(
                error(
                    "GIR002",
                    f"iteration {i}'s {name} operand is node {int(t[i])}, "
                    f"neither an iteration nor one of the {m} cells",
                    where=loc,
                    data={"iteration": i},
                )
            )
            return False
    level_of = np.zeros(n + m, dtype=np.int64)  # leaves: level 0
    level_of[order] = np.repeat(
        np.arange(1, level_ptr.shape[0], dtype=np.int64), np.diff(level_ptr)
    )
    own = level_of[:n]
    for name, t in zip(("f", "h"), targets):
        late = level_of[t] >= own
        if bool(late.any()):
            i = int(np.argmax(late))
            report.add(
                error(
                    "GIR012",
                    f"iteration {i} (level {int(own[i])}) reads its {name} "
                    f"operand from iteration {int(t[i])} in level "
                    f"{int(level_of[t[i]])}, not an earlier level: the "
                    "operand is not final when its level runs",
                    where=loc,
                    data={"iteration": i},
                )
            )
            return False
    return True


def _verify_gir_targets(layout: Any, graph: Any, report: CheckReport) -> bool:
    """GIR013: the layout's operand targets are the dependence graph
    re-derived from the system, so each level folds the loop's own
    operands."""
    report.ran()
    for name, got, want in (
        ("f", layout.target_f, graph.target_f),
        ("h", layout.target_h, graph.target_h),
    ):
        if not np.array_equal(got, want):
            i = int(np.argmax(np.asarray(got) != want))
            report.add(
                error(
                    "GIR013",
                    f"iteration {i}'s {name} operand is node {int(got[i])}, "
                    f"but the system's dependence graph has {int(want[i])}",
                    where="gir levels",
                    data={"iteration": i},
                )
            )
            return False
    report.add(
        info(
            "IR000",
            f"level layout matches the dependence graph on all {graph.n} "
            "iterations",
            where="gir",
        )
    )
    return True


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
