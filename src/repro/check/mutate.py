"""Adversarial schedule mutations: the verifier's sparring partner.

Property-based self-test for :mod:`repro.check.schedule`: take a
*valid* planner-produced :class:`~repro.engine.plan.OrdinaryPlan`,
apply a semantics-breaking mutation, and require the verifier to
reject the result.  Every mutation models a real corruption mode of a
serialized / hand-edited / miscomputed plan:

===================  =====================================================
kind                 models                                  caught by
===================  =====================================================
``swap_rounds``      reordered barrier phases                SCH002/SCH003
``perturb_gather``   one gather index off                    SCH002
``drop_round``       a lost barrier phase                    SCH002/SCH004
``duplicate_active`` a write slot emitted twice              SCH001
``corrupt_pred``     pred drifting from (g, f)               SCH006
``truncate``         a schedule cut short                    SCH004
===================  =====================================================

Chain plans (``plan.chains`` set) also get the chain-layout classes,
one per field of a run:

======================  ==================================  ===============
kind                    models                              caught by
======================  ==================================  ===============
``chain_swap_order``    a level boundary moved by one: a    CHN002/CHN004
                        run joins its parent run's level
``chain_shift_offset``  one run boundary moved by one       CHN001/CHN002
``chain_relink_seed``   a run's seed re-pointed at another  CHN004
                        chain position
``chain_bend_stride``   a run's stride off by one           CHN001
``chain_shift_head``    a run's head moved by one           CHN001
======================  ==================================  ===============

Level plans (``plan.levels`` set) get the level-layout classes:

=========================  ===================================  =========
kind                       models                               caught by
=========================  ===================================  =========
``level_swap_order``       two iterations of different levels   LVL003
                           swapped in the level order
``level_shift_ptr``        a level boundary moved by one: an    LVL003
                           iteration joins its predecessor's
                           level
``level_retarget_read``    one read cell re-pointed at another  LVL004
                           cell
``level_duplicate_write``  one write cell copied over another:  LVL001
                           an iteration swept twice, one never
=========================  ===================================  =========

A level plan stores no ``pred`` and a chain or level plan no round
schedule; the schedule classes mutate a copy that builds both.

GIR plans (the v2 CSR power table) have their own mutation classes,
applied by :func:`mutate_plan` when the plan's family is ``gir`` --
feed the result to ``verify_plan(plan, system=system)``:

=========================  ===============================================
kind                       models                              caught by
=========================  ===============================================
``gir_perturb_exponent``   one path count miscounted           GIR004/GIR007
``gir_truncate_rowptr``    a row pointer cut short             GIR006
``gir_swap_cells``         row cells out of sorted order       GIR006
``gir_leaf_drift``         a factor dropped, CSR re-closed     GIR004/GIR007
=========================  ===============================================

``gir_leaf_drift`` is the adversarial one: it deletes a factor *and*
repairs every downstream row pointer, so the table stays structurally
perfect and only the dependence-graph oracle can reject it.

GIR level plans (``plan.levels`` set) get the level-layout classes;
``gir_level_retarget`` and ``gir_level_swap_out_cells`` leave the
layout structurally perfect, so only the system-backed GIR013 rule
can reject them:

============================  ===================================  ======
kind                          models                               caught
============================  ===================================  ======
``gir_level_swap_order``      two iterations of different levels   GIR012
                              swapped in the level order
``gir_level_shift_ptr``       a level boundary moved by one: an    GIR012
                              iteration joins its operand's level
``gir_level_retarget``        an operand re-pointed at another     GIR013
                              cell's initial value
``gir_level_swap_out_cells``  two iterations' output cells         GIR013
                              swapped
============================  ===================================  ======

All mutations are seeded and pure: the input plan is never modified.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MUTATION_KINDS",
    "CHAIN_MUTATION_KINDS",
    "LEVEL_MUTATION_KINDS",
    "GIR_MUTATION_KINDS",
    "GIR_LEVEL_MUTATION_KINDS",
    "Mutation",
    "mutate_plan",
    "mutation_campaign",
]

MUTATION_KINDS: Tuple[str, ...] = (
    "swap_rounds",
    "perturb_gather",
    "drop_round",
    "duplicate_active",
    "corrupt_pred",
    "truncate",
)

CHAIN_MUTATION_KINDS: Tuple[str, ...] = (
    "chain_swap_order",
    "chain_shift_offset",
    "chain_relink_seed",
    "chain_bend_stride",
    "chain_shift_head",
)

LEVEL_MUTATION_KINDS: Tuple[str, ...] = (
    "level_swap_order",
    "level_shift_ptr",
    "level_retarget_read",
    "level_duplicate_write",
)

GIR_MUTATION_KINDS: Tuple[str, ...] = (
    "gir_perturb_exponent",
    "gir_truncate_rowptr",
    "gir_swap_cells",
    "gir_leaf_drift",
)

GIR_LEVEL_MUTATION_KINDS: Tuple[str, ...] = (
    "gir_level_swap_order",
    "gir_level_shift_ptr",
    "gir_level_retarget",
    "gir_level_swap_out_cells",
)


@dataclass
class Mutation:
    """One applied mutation: ``plan`` is the mutated copy."""

    kind: str
    description: str
    plan: Any
    data: dict = field(default_factory=dict)


def _clone(plan: Any, chains: Any = None) -> Any:
    """A deep copy of ``plan`` -- its layout and whatever lazy state it
    has materialized (``chains`` replaces a chain layout)."""
    from ..engine.plan import ChainLayout, ForestLevels, OrdinaryPlan

    def copy(arr):
        return np.array(arr, dtype=np.int64, copy=True)

    layout = plan.chains if chains is None else chains
    levels = plan.levels
    return OrdinaryPlan(
        fingerprint=plan.fingerprint,
        n=int(plan.n),
        m=int(plan.m),
        g=copy(plan.g),
        f=copy(plan.f),
        pred=copy(plan.pred) if plan.has_pred else None,
        steps=[
            (np.array(a, copy=True), np.array(s, copy=True))
            for a, s in plan.steps
        ]
        if plan.has_steps
        else None,
        chains=None
        if layout is None
        else ChainLayout(
            **{name: copy(getattr(layout, name)) for name in ChainLayout._ARRAYS}
        ),
        levels=None
        if levels is None
        else ForestLevels(
            write_cells=copy(levels.write_cells),
            read_cells=copy(levels.read_cells),
            level_ptr=copy(levels.level_ptr),
        ),
    )


def _mutate_forest_levels(
    plan: Any, kind: str, rng: random.Random
) -> Optional[Mutation]:
    """The level-layout mutation classes; each provably breaks the
    layout (none yields an equivalent one)."""
    layout = plan.levels
    if layout is None:
        return None
    n, m = int(plan.n), int(plan.m)
    ptr = layout.level_ptr.tolist()
    levels = len(ptr) - 1

    if kind == "level_swap_order":
        # the iteration from the later level lands no later than its
        # predecessor's level (or, a root taken out of level 0)
        if levels < 2:
            return None
        lo_level = rng.randrange(levels - 1)
        hi_level = rng.randrange(lo_level + 1, levels)
        a = rng.randrange(ptr[lo_level], ptr[lo_level + 1])
        b = rng.randrange(ptr[hi_level], ptr[hi_level + 1])
        mutated = _clone(plan)
        for cells in (mutated.levels.write_cells, mutated.levels.read_cells):
            cells[a], cells[b] = int(cells[b]), int(cells[a])
        return Mutation(
            kind=kind,
            description=f"level positions {a} (level {lo_level}) and {b} "
            f"(level {hi_level}) swapped",
            plan=mutated,
            data={"positions": (a, b)},
        )

    if kind == "level_shift_ptr":
        # the first iteration of a level joins the level below it, where
        # its predecessor runs
        if levels < 2:
            return None
        k = rng.randrange(1, levels)
        mutated = _clone(plan)
        mutated.levels.level_ptr[k] += 1
        return Mutation(
            kind=kind,
            description=f"level pointer {k} moved up by one: the cell "
            f"{int(layout.write_cells[ptr[k]])} writer joins level {k - 1}",
            plan=mutated,
            data={"pointer": k},
        )

    if kind == "level_retarget_read":
        if n == 0 or m < 2:
            return None
        j = rng.randrange(n)
        old = int(layout.read_cells[j])
        cell = rng.randrange(m - 1)
        cell += cell >= old  # any cell but the current one
        mutated = _clone(plan)
        mutated.levels.read_cells[j] = cell
        return Mutation(
            kind=kind,
            description=f"level position {j} reads cell {cell}, not {old}",
            plan=mutated,
            data={"position": j},
        )

    if kind == "level_duplicate_write":
        if n < 2:
            return None
        j, k = rng.sample(range(n), 2)
        mutated = _clone(plan)
        mutated.levels.write_cells[j] = int(layout.write_cells[k])
        return Mutation(
            kind=kind,
            description=f"level position {j} writes cell "
            f"{int(layout.write_cells[k])}, as position {k} does",
            plan=mutated,
            data={"positions": (j, k)},
        )

    raise ValueError(f"unknown mutation kind {kind!r}")


def _mutate_chains(plan: Any, kind: str, rng: random.Random) -> Optional[Mutation]:
    """The chain-layout mutation classes; each provably breaks the
    layout (none yields an equivalent one)."""
    chains = plan.chains
    if chains is None:
        return None
    lengths = np.diff(chains.offsets)
    segments, n = int(lengths.shape[0]), int(plan.n)

    def one(field: str, s: int, value: int, what: str) -> Mutation:
        mutated = _clone(plan)
        old = int(getattr(mutated.chains, field)[s])
        getattr(mutated.chains, field)[s] = value
        description = f"{what} {s}: {old} -> {value}"
        return Mutation(kind=kind, description=description, plan=mutated)

    if kind == "chain_bend_stride":
        # the run's second member is then covered by no run
        long = np.flatnonzero(lengths > 1)
        if long.size == 0:
            return None
        s = int(long[rng.randrange(long.size)])
        return one("strides", s, int(chains.strides[s]) + 1, "run stride")

    if kind == "chain_shift_head":
        # the run's old head is then covered by no run
        s = rng.randrange(segments)
        head = int(chains.heads[s])
        return one("heads", s, head + rng.choice((-1, 1)) if head else 1, "run head")

    if kind == "chain_relink_seed":
        # positions name distinct iterations: any other one is wrong
        s = rng.randrange(segments)
        value = rng.randrange(-1, n - 1)
        return one("seeds", s, value + (value >= chains.seeds[s]), "run seed")

    if kind == "chain_shift_offset":
        # one run gains the next member of its progression, its
        # neighbour loses its tail (or empties): some iteration is then
        # covered twice or never
        if segments < 2:
            return None
        k = rng.randrange(1, segments)
        delta = rng.choice((+1, -1))
        return one("offsets", k, int(chains.offsets[k]) + delta, "run offset")

    if kind == "chain_swap_order":
        # a level boundary moved by one: the first run of a level joins
        # the level of its parent run, which holds its seed
        if chains.levels < 2:
            return None
        k = rng.randrange(1, chains.levels)
        return one("level_ptr", k, int(chains.level_ptr[k]) + 1, "level pointer")

    raise ValueError(f"unknown mutation kind {kind!r}")


def _clone_gir(plan: Any) -> Any:
    """A deep copy of a GIR trace plan: its level layout and its
    materialized power table (a lazy one stays unbuilt)."""
    from ..engine.plan import GIRPlan, LevelLayout, PowerTable

    def copy(arr):
        return None if arr is None else np.array(arr, dtype=np.int64, copy=True)

    table = plan.table if plan.has_table else None
    layout = plan.levels
    return GIRPlan(
        fingerprint=plan.fingerprint,
        n=int(plan.n),
        m=int(plan.m),
        renamed=bool(plan.renamed),
        dispatch=plan.dispatch,
        out_cells=copy(plan.out_cells),
        table=None
        if table is None
        else PowerTable(
            row_ptr=copy(table.row_ptr),
            cells=copy(table.cells),
            exponents=table.exponents.copy(),
            period=table.period,
        ),
        final_cell_of=copy(plan.final_cell_of),
        cap_iterations=int(plan.cap_iterations),
        cap_edge_work=int(plan.cap_edge_work),
        levels=None
        if layout is None
        else LevelLayout(
            target_f=copy(layout.target_f),
            target_h=copy(layout.target_h),
            order=copy(layout.order),
            level_ptr=copy(layout.level_ptr),
        ),
    )


def _mutate_levels(plan: Any, kind: str, rng: random.Random) -> Optional[Mutation]:
    """The GIR level-layout mutation classes."""
    layout = getattr(plan, "levels", None)
    if layout is None:
        return None
    n, m = int(plan.n), int(plan.m)
    ptr = layout.level_ptr.tolist()
    levels = len(ptr) - 1

    if kind == "gir_level_swap_order":
        # a node of a later level now runs first: it has an operand
        # in the level just below its own, hence not earlier than it
        if levels < 2:
            return None
        lo_level = rng.randrange(levels - 1)
        hi_level = rng.randrange(lo_level + 1, levels)
        a = rng.randrange(ptr[lo_level], ptr[lo_level + 1])
        b = rng.randrange(ptr[hi_level], ptr[hi_level + 1])
        mutated = _clone_gir(plan)
        order = mutated.levels.order
        order[a], order[b] = int(order[b]), int(order[a])
        return Mutation(
            kind=kind,
            description=f"level order entries {a} (level {lo_level + 1}) and "
            f"{b} (level {hi_level + 1}) swapped",
            plan=mutated,
            data={"entries": (a, b)},
        )

    if kind == "gir_level_shift_ptr":
        # the first node of a level joins the level below it, where
        # one of its operands is computed
        if levels < 2:
            return None
        k = rng.randrange(1, levels)
        mutated = _clone_gir(plan)
        mutated.levels.level_ptr[k] += 1
        return Mutation(
            kind=kind,
            description=f"level pointer {k} moved up by one: iteration "
            f"{int(layout.order[ptr[k]])} joins level {k}",
            plan=mutated,
            data={"pointer": k},
        )

    if kind == "gir_level_retarget":
        if n == 0 or m < 2:
            return None
        i = rng.randrange(n)
        old = int(layout.target_f[i])
        cell = rng.randrange(m - 1)
        cell += cell >= old - n  # any cell but the current leaf's
        mutated = _clone_gir(plan)
        mutated.levels.target_f[i] = n + cell
        return Mutation(
            kind=kind,
            description=f"iteration {i}'s f operand re-pointed from node "
            f"{old} to cell {cell}'s initial value",
            plan=mutated,
            data={"iteration": i},
        )

    if kind == "gir_level_swap_out_cells":
        if n < 2:
            return None
        i, j = rng.sample(range(n), 2)
        mutated = _clone_gir(plan)
        cells = mutated.out_cells
        cells[i], cells[j] = int(cells[j]), int(cells[i])
        return Mutation(
            kind=kind,
            description=f"iterations {i} and {j} swap output cells",
            plan=mutated,
            data={"iterations": (i, j)},
        )

    raise ValueError(f"unknown mutation kind {kind!r}")


def _mutate_gir(plan: Any, kind: str, rng: random.Random) -> Optional[Mutation]:
    """The GIR power-table mutation classes (v2 CSR artifacts); a
    level plan's table only once it is built."""
    from ..engine.plan import exponent_array

    if not getattr(plan, "has_table", False):
        return None
    table = plan.table
    nnz = table.nnz

    if kind == "gir_perturb_exponent":
        if nnz == 0:
            return None
        j = rng.randrange(nnz)
        delta = rng.randrange(1, 5)
        mutated = _clone_gir(plan)
        t = mutated.table
        exps = t.exponents.tolist()
        exps[j] += delta
        t.exponents = exponent_array(exps)  # exact ints past int64
        return Mutation(
            kind=kind,
            description=f"table entry {j}: exponent +{delta}",
            plan=mutated,
            data={"entry": j, "delta": delta},
        )

    if kind == "gir_truncate_rowptr":
        if nnz == 0:
            return None
        mutated = _clone_gir(plan)
        mutated.table.row_ptr[-1] -= 1
        return Mutation(
            kind=kind,
            description="final row pointer decremented: the table no "
            "longer closes over its entries",
            plan=mutated,
        )

    if kind == "gir_swap_cells":
        rows = [
            i
            for i in range(table.rows)
            if int(table.row_ptr[i + 1]) - int(table.row_ptr[i]) >= 2
        ]
        if not rows:
            return None
        r = rng.choice(rows)
        j = rng.randrange(
            int(table.row_ptr[r]), int(table.row_ptr[r + 1]) - 1
        )
        mutated = _clone_gir(plan)
        cells = mutated.table.cells
        cells[j], cells[j + 1] = int(cells[j + 1]), int(cells[j])
        return Mutation(
            kind=kind,
            description=f"row {r}: adjacent cells {j} and {j + 1} swapped "
            "(sorted-order violation)",
            plan=mutated,
            data={"row": r, "entry": j},
        )

    if kind == "gir_leaf_drift":
        rows = [
            i
            for i in range(table.rows)
            if int(table.row_ptr[i + 1]) - int(table.row_ptr[i]) >= 2
        ]
        if not rows:
            return None
        r = rng.choice(rows)
        j = rng.randrange(int(table.row_ptr[r]), int(table.row_ptr[r + 1]))
        mutated = _clone_gir(plan)
        t = mutated.table
        t.cells = np.delete(t.cells, j)
        t.exponents = np.delete(t.exponents, j)
        t.row_ptr[r + 1 :] -= 1
        return Mutation(
            kind=kind,
            description=f"row {r}: factor at entry {j} dropped with the "
            "CSR pointers repaired (structurally invisible)",
            plan=mutated,
            data={"row": r, "entry": j},
        )

    raise ValueError(f"unknown mutation kind {kind!r}")


def mutate_plan(plan: Any, kind: str, seed: int = 0) -> Optional[Mutation]:
    """Apply one seeded mutation of ``kind``; ``None`` when the plan is
    too small for it (e.g. ``swap_rounds`` on a 1-round schedule)."""
    # zlib.crc32 rather than hash(): stable across processes
    # (str hashing is randomized by PYTHONHASHSEED).
    rng = random.Random((seed * 1_000_003) ^ zlib.crc32(kind.encode()))
    if kind.startswith("gir_level_"):
        return _mutate_levels(plan, kind, rng)
    if kind.startswith("gir_"):
        return _mutate_gir(plan, kind, rng)
    if kind.startswith("chain_"):
        return _mutate_chains(plan, kind, rng)
    if kind.startswith("level_"):
        return _mutate_forest_levels(plan, kind, rng)
    if not plan.has_steps:
        # a chain or level plan: mutate a copy whose round schedule
        # (and pred) is built -- the input plan stays as it was
        plan = _clone(plan)
    rounds = len(plan.steps)
    n = int(plan.n)

    if kind == "swap_rounds":
        if rounds < 2:
            return None
        i = rng.randrange(rounds - 1)
        j = rng.randrange(i + 1, rounds)
        mutated = _clone(plan)
        mutated.steps[i], mutated.steps[j] = mutated.steps[j], mutated.steps[i]
        return Mutation(
            kind=kind,
            description=f"swapped rounds {i} and {j}",
            plan=mutated,
            data={"i": i, "j": j},
        )

    if kind == "perturb_gather":
        if rounds == 0 or n < 2:
            return None
        r = rng.randrange(rounds)
        active, src = plan.steps[r]
        if active.size == 0:
            return None
        k = rng.randrange(int(active.size))
        delta = rng.randrange(1, n)
        mutated = _clone(plan)
        new_src = mutated.steps[r][1]
        new_src[k] = (int(new_src[k]) + delta) % n
        return Mutation(
            kind=kind,
            description=f"round {r} slot {k}: gather index +{delta} (mod {n})",
            plan=mutated,
            data={"round": r, "slot": k},
        )

    if kind == "drop_round":
        if rounds == 0:
            return None
        r = rng.randrange(rounds)
        mutated = _clone(plan)
        del mutated.steps[r]
        return Mutation(
            kind=kind,
            description=f"dropped round {r} of {rounds}",
            plan=mutated,
            data={"round": r},
        )

    if kind == "duplicate_active":
        if rounds == 0:
            return None
        r = rng.randrange(rounds)
        active, src = plan.steps[r]
        if active.size == 0:
            return None
        k = rng.randrange(int(active.size))
        mutated = _clone(plan)
        a, s = mutated.steps[r]
        mutated.steps[r] = (
            np.append(a, a[k]),
            np.append(s, s[k]),
        )
        return Mutation(
            kind=kind,
            description=f"round {r}: write slot for iteration "
            f"{int(active[k])} emitted twice",
            plan=mutated,
            data={"round": r, "iteration": int(active[k])},
        )

    if kind == "corrupt_pred":
        if n == 0:
            return None
        i = rng.randrange(n)
        orig = int(plan.pred[i])
        choices = [v for v in range(-1, n) if v != orig]
        mutated = _clone(plan)
        mutated.pred[i] = rng.choice(choices)
        return Mutation(
            kind=kind,
            description=f"pred[{i}]: {orig} -> {int(mutated.pred[i])}",
            plan=mutated,
            data={"iteration": i},
        )

    if kind == "truncate":
        if rounds == 0:
            return None
        mutated = _clone(plan)
        mutated.steps = mutated.steps[:-1]
        return Mutation(
            kind=kind,
            description=f"dropped the final round ({rounds - 1})",
            plan=mutated,
        )

    raise ValueError(f"unknown mutation kind {kind!r}")


def mutation_campaign(
    plan: Any,
    *,
    kinds: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(8),
) -> List[Mutation]:
    """All applicable (kind, seed) mutations of ``plan``.

    ``kinds`` defaults by plan family: GIR trace plans get
    :data:`GIR_LEVEL_MUTATION_KINDS` when they carry a level layout
    and :data:`GIR_MUTATION_KINDS` when they carry a built power table;
    everything else gets the schedule classes, plus
    :data:`CHAIN_MUTATION_KINDS` on a chain plan and
    :data:`LEVEL_MUTATION_KINDS` on a level plan.
    """
    if kinds is None:
        if getattr(plan, "family", None) == "gir":
            kinds = (
                GIR_LEVEL_MUTATION_KINDS if plan.levels is not None else ()
            ) + (GIR_MUTATION_KINDS if plan.has_table else ())
        else:
            kinds = MUTATION_KINDS
            if getattr(plan, "chains", None) is not None:
                kinds = kinds + CHAIN_MUTATION_KINDS
            if getattr(plan, "levels", None) is not None:
                kinds = kinds + LEVEL_MUTATION_KINDS
    out: List[Mutation] = []
    for kind in kinds:
        for seed in seeds:
            mut = mutate_plan(plan, kind, seed)
            if mut is not None:
                out.append(mut)
    return out
