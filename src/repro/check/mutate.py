"""Adversarial plan mutations: the verifier's sparring partner.

Property-based self-test for :mod:`repro.check.schedule`: take a
*valid* planner-produced plan, apply a semantics-breaking mutation,
and require the verifier to reject the result.  Every mutation models
a real corruption mode of a serialized / hand-edited / miscomputed
plan.  A rounds plan stores only its predecessor array, so it has one
class:

===================  ==========================  =====================
kind                 models                      caught by
===================  ==========================  =====================
``corrupt_pred``     pred drifting from (g, f)   SCH006; SCH005 when
                                                 it points forward
===================  ==========================  =====================

Without the system only a forward ``pred`` (``pred[i] >= i``) is
caught: a backward one is a valid forest of another system.

Chain and level plans of either family (``plan.levels`` set: a
:class:`~repro.engine.plan.LevelLayout`, over cells for an ordinary
plan, over dependence-graph nodes for a GIR plan) get the level-layout
classes:

=========================  ===================================  =========
kind                       models                               caught by
=========================  ===================================  =========
``level_swap_order``       two iterations of different levels   LVL003/
                           swapped in the level order           LVL004
``level_shift_ptr``        a level boundary moved by one: a     LVL003
                           segment joins its seed's level
``level_retarget_read``    one seed slot re-pointed at another  LVL003/
                           slot                                 LVL004
``level_duplicate_write``  one write slot copied over another:  LVL001
                           an iteration folded twice, one never
``level_shift_offset``     one segment boundary of a chain      LVL002/
                           plan moved by one                    LVL004/
                                                                LVL005
=========================  ===================================  =========

``level_swap_order`` swaps one-iteration segments (a layout of runs
has ``level_shift_offset`` instead); the system-backed rules (LVL004,
LVL005) need ``verify_plan(..., system=system)``.  A chain or level
plan stores no ``pred``: ``corrupt_pred`` mutates one only once a
rounds consumer built it (it holds no maps to build it from).

GIR plans (the CSR power table) have their own mutation classes,
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

Only the system-backed LVL004 rejects a GIR ``level_retarget_read``
onto another leaf.

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
    "LEVEL_MUTATION_KINDS",
    "GIR_MUTATION_KINDS",
    "Mutation",
    "mutate_plan",
    "mutation_campaign",
]

MUTATION_KINDS: Tuple[str, ...] = ("corrupt_pred",)

LEVEL_MUTATION_KINDS: Tuple[str, ...] = (
    "level_swap_order",
    "level_shift_ptr",
    "level_retarget_read",
    "level_duplicate_write",
    "level_shift_offset",
)

GIR_MUTATION_KINDS: Tuple[str, ...] = (
    "gir_perturb_exponent",
    "gir_truncate_rowptr",
    "gir_swap_cells",
    "gir_leaf_drift",
)

@dataclass
class Mutation:
    """One applied mutation: ``plan`` is the mutated copy."""

    kind: str
    description: str
    plan: Any
    data: dict = field(default_factory=dict)


def _copy(arr):
    return None if arr is None else np.array(arr, dtype=np.int64, copy=True)


def _copy_levels(layout: Any) -> Any:
    from ..engine.plan import LevelLayout

    if layout is None:
        return None
    arrays = {name: _copy(getattr(layout, name)) for name in LevelLayout._ARRAYS}
    copy = LevelLayout(**arrays)
    copy.write = arrays["write"]  # stored even when one range: edits land
    return copy


def _clone(plan: Any) -> Any:
    """A deep copy of ``plan`` -- its layout and its ``pred`` when
    materialized (a round schedule is never copied: it follows from
    ``pred``)."""
    from ..engine.plan import OrdinaryPlan

    return OrdinaryPlan(
        fingerprint=plan.fingerprint,
        n=int(plan.n),
        m=int(plan.m),
        family=plan.family,
        pred=_copy(plan.pred) if plan.has_pred else None,
        levels=_copy_levels(plan.levels),
    )


def _mutate_levels(plan: Any, kind: str, rng: random.Random) -> Optional[Mutation]:
    """The level-layout mutation classes, on either family's layout;
    each provably breaks the layout (none yields an equivalent one)."""
    layout = plan.levels
    if layout is None:
        return None
    gir = plan.family == "gir"
    clone = _clone_gir if gir else _clone
    n = int(plan.n)
    slots = n + int(plan.m) if gir else int(plan.m)  # GIR slots: graph nodes
    ptr = layout.level_ptr.tolist()
    levels = len(ptr) - 1
    offsets = layout.offsets

    if kind == "level_shift_offset":
        # one segment gains its neighbour's head or loses its last
        # member to it (or a segment empties): a head then reads
        # another seed, or a member another operand than the one before
        if offsets is None or layout.segments < 2:
            return None
        k = rng.randrange(1, layout.segments)
        delta = rng.choice((+1, -1))
        mutated = clone(plan)
        mutated.levels.offsets[k] += delta
        return Mutation(
            kind=kind,
            description=f"segment offset {k}: {int(offsets[k])} -> "
            f"{int(offsets[k]) + delta}",
            plan=mutated,
            data={"offset": k},
        )

    if kind == "level_swap_order":
        # the iteration from the later level lands no later than the
        # level of an operand it reads (or, a root taken out of level 0)
        if levels < 2 or offsets is not None:
            return None
        lo_level = rng.randrange(levels - 1)
        hi_level = rng.randrange(lo_level + 1, levels)
        a = rng.randrange(ptr[lo_level], ptr[lo_level + 1])
        b = rng.randrange(ptr[hi_level], ptr[hi_level + 1])
        mutated = clone(plan)
        for name in ("write", "read", "read_h"):
            slot = getattr(mutated.levels, name)
            if slot is not None:
                slot[a], slot[b] = int(slot[b]), int(slot[a])
        return Mutation(
            kind=kind,
            description=f"level positions {a} (level {lo_level}) and {b} "
            f"(level {hi_level}) swapped",
            plan=mutated,
            data={"positions": (a, b)},
        )

    if kind == "level_shift_ptr":
        # the first iteration of a level joins the level below it, where
        # an operand it reads is written
        if levels < 2:
            return None
        k = rng.randrange(1, levels)
        mutated = clone(plan)
        mutated.levels.level_ptr[k] += 1
        return Mutation(
            kind=kind,
            description=f"level pointer {k} moved up by one: segment "
            f"{ptr[k]} joins level {k - 1}",
            plan=mutated,
            data={"pointer": k},
        )

    if kind == "level_retarget_read":
        if n == 0 or slots < 2:
            return None
        j = rng.randrange(layout.segments)
        old = int(layout.read[j])
        slot = rng.randrange(slots - 1)
        slot += slot >= old  # any slot but the current one
        mutated = clone(plan)
        mutated.levels.read[j] = slot
        return Mutation(
            kind=kind,
            description=f"segment {j} reads slot {slot}, not {old}",
            plan=mutated,
            data={"position": j},
        )

    if kind == "level_duplicate_write":
        if n < 2:
            return None
        j, k = rng.sample(range(n), 2)
        mutated = clone(plan)
        mutated.levels.write[j] = int(layout.write[k])
        return Mutation(
            kind=kind,
            description=f"level position {j} writes slot "
            f"{int(layout.write[k])}, as position {k} does",
            plan=mutated,
            data={"positions": (j, k)},
        )

    raise ValueError(f"unknown mutation kind {kind!r}")


def _clone_gir(plan: Any) -> Any:
    """A deep copy of a GIR trace plan: its level layout or its power
    table."""
    from ..engine.plan import GIRPlan, PowerTable

    table = plan.table
    return GIRPlan(
        fingerprint=plan.fingerprint,
        n=int(plan.n),
        m=int(plan.m),
        renamed=bool(plan.renamed),
        dispatch=plan.dispatch,
        table=None
        if table is None
        else PowerTable(
            row_ptr=_copy(table.row_ptr),
            cells=_copy(table.cells),
            exponents=table.exponents.copy(),
            period=table.period,
        ),
        final_cell_of=_copy(plan.final_cell_of),
        cap_iterations=int(plan.cap_iterations),
        cap_edge_work=int(plan.cap_edge_work),
        levels=_copy_levels(plan.levels),
    )


def _mutate_gir(plan: Any, kind: str, rng: random.Random) -> Optional[Mutation]:
    """The power table's mutation classes (CSR artifacts of a table
    plan)."""
    from ..engine.plan import exponent_array

    table = getattr(plan, "table", None)
    if table is None:
        return None
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
    too small for it or lacks what it mutates (e.g. ``corrupt_pred``
    on a chain plan whose ``pred`` is not built)."""
    # zlib.crc32 rather than hash(): stable across processes
    # (str hashing is randomized by PYTHONHASHSEED).
    rng = random.Random((seed * 1_000_003) ^ zlib.crc32(kind.encode()))
    if kind.startswith("gir_"):
        return _mutate_gir(plan, kind, rng)
    if kind.startswith("level_"):
        return _mutate_levels(plan, kind, rng)
    if kind != "corrupt_pred":
        raise ValueError(f"unknown mutation kind {kind!r}")
    n = int(plan.n)
    if n == 0 or not plan.has_pred:  # a chain or level plan: pred needs the system
        return None
    i = rng.randrange(n)
    orig = int(plan.pred[i])
    new = rng.randrange(-1, n - 1)
    new += new >= orig  # any value in [-1, n) but the current one
    mutated = _clone(plan)
    mutated.pred[i] = new
    return Mutation(
        kind=kind,
        description=f"pred[{i}]: {orig} -> {new}",
        plan=mutated,
        data={"iteration": i},
    )


def mutation_campaign(
    plan: Any,
    *,
    kinds: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(8),
) -> List[Mutation]:
    """All applicable (kind, seed) mutations of ``plan``.

    ``kinds`` defaults by plan family and layout: a chain or level
    plan of either family gets :data:`LEVEL_MUTATION_KINDS`, a GIR plan
    with a power table :data:`GIR_MUTATION_KINDS`, and an ordinary plan
    :data:`MUTATION_KINDS` (which need a stored or built ``pred``).
    """
    if kinds is None:
        gir = getattr(plan, "family", None) == "gir"
        kinds = () if gir else MUTATION_KINDS
        if getattr(plan, "levels", None) is not None:
            kinds += LEVEL_MUTATION_KINDS
        if gir and plan.table is not None:
            kinds += GIR_MUTATION_KINDS
    out: List[Mutation] = []
    for kind in kinds:
        for seed in seeds:
            mut = mutate_plan(plan, kind, seed)
            if mut is not None:
                out.append(mut)
    return out
