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

Chain plans (``plan.chains`` set) also get the chain-layout classes:

======================  ==================================  ===============
kind                    models                              caught by
======================  ==================================  ===============
``chain_swap_order``    two permutation entries swapped     CHN003
``chain_shift_offset``  one segment boundary moved by one   CHN002/CHN003
``chain_relink_seed``   a seed's segment moved to a later   CHN002/CHN004
                        level than a segment it seeds
======================  ==================================  ===============

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
    "GIR_MUTATION_KINDS",
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


def _clone(plan: Any, chains: Any = None) -> Any:
    """A deep copy of ``plan`` -- its materialized round schedule and
    chain layout (``chains`` replaces the layout)."""
    from ..engine.plan import ChainLayout, OrdinaryPlan

    layout = plan.chains if chains is None else chains
    return OrdinaryPlan(
        fingerprint=plan.fingerprint,
        n=int(plan.n),
        m=int(plan.m),
        g=np.array(plan.g, dtype=np.int64, copy=True),
        f=np.array(plan.f, dtype=np.int64, copy=True),
        pred=np.array(plan.pred, dtype=np.int64, copy=True),
        steps=[
            (np.array(a, copy=True), np.array(s, copy=True))
            for a, s in plan.steps
        ]
        if plan.has_steps
        else None,
        chains=None
        if layout is None
        else ChainLayout(
            order=np.array(layout.order, dtype=np.int64, copy=True),
            offsets=np.array(layout.offsets, dtype=np.int64, copy=True),
            level_ptr=np.array(layout.level_ptr, dtype=np.int64, copy=True),
        ),
    )


def _mutate_chains(plan: Any, kind: str, rng: random.Random) -> Optional[Mutation]:
    """The chain-layout mutation classes; each provably breaks the
    layout (none yields an equivalent one)."""
    chains = plan.chains
    if chains is None:
        return None
    order, offsets, pred = chains.order, chains.offsets, plan.pred
    heads = np.zeros(order.shape[0], dtype=bool)
    heads[offsets[:-1]] = True

    if kind == "chain_swap_order":
        # Swap a member with its segment predecessor: x = pred-successor
        # of y now precedes y, and pred[y] < y < x, so y is unlinked.
        members = np.flatnonzero(~heads)
        if members.size == 0:
            return None
        k = int(members[rng.randrange(members.size)])
        mutated = _clone(plan)
        o = mutated.chains.order
        o[k - 1], o[k] = int(o[k]), int(o[k - 1])
        return Mutation(
            kind=kind,
            description=f"chain positions {k - 1} and {k} swapped",
            plan=mutated,
            data={"position": k},
        )

    if kind == "chain_shift_offset":
        # Only boundaries whose head does not read the previous tail:
        # shifting one either way then unlinks a member (or empties a
        # segment) rather than forming a longer valid segment.
        interior = [
            k
            for k in range(1, int(offsets.shape[0]) - 1)
            if int(pred[order[offsets[k]]]) != int(order[offsets[k] - 1])
        ]
        if not interior:
            return None
        k = rng.choice(interior)
        delta = rng.choice((+1, -1))
        mutated = _clone(plan)
        mutated.chains.offsets[k] += delta
        return Mutation(
            kind=kind,
            description=f"segment offset {k} shifted {delta:+d}",
            plan=mutated,
            data={"offset": k, "delta": delta},
        )

    if kind == "chain_relink_seed":
        # Move the segment holding some head's seed to the last level:
        # that head's seed is then no earlier than the head's own level.
        levels = chains.levels
        if levels < 2:
            return None
        lo = int(chains.level_ptr[1])
        s = rng.randrange(lo, int(offsets.shape[0]) - 1)
        seed = int(pred[order[offsets[s]]])
        pos = np.empty_like(order)
        pos[order] = np.arange(order.shape[0])
        p = int(np.searchsorted(offsets, pos[seed], side="right")) - 1
        level_of = np.repeat(np.arange(levels), np.diff(chains.level_ptr))
        keep = [q for q in range(int(offsets.shape[0]) - 1) if q != p] + [p]
        seg_levels = np.array([level_of[q] for q in keep[:-1]] + [levels - 1])
        new_order = np.concatenate(
            [order[offsets[q] : offsets[q + 1]] for q in keep]
        )
        new_offsets = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum([int(offsets[q + 1] - offsets[q]) for q in keep], out=new_offsets[1:])
        from ..engine.plan import ChainLayout

        mutated = _clone(
            plan,
            ChainLayout(
                order=new_order,
                offsets=new_offsets,
                level_ptr=np.searchsorted(
                    seg_levels, np.arange(levels + 1), side="left"
                ).astype(np.int64),
            ),
        )
        return Mutation(
            kind=kind,
            description=f"segment {p} (seeding segment {s}) moved from "
            f"level {int(level_of[p])} to level {levels - 1}",
            plan=mutated,
            data={"segment": p, "seeded": s},
        )

    raise ValueError(f"unknown mutation kind {kind!r}")


def _clone_gir(plan: Any) -> Any:
    from ..engine.plan import GIRPlan, PowerTable

    table = plan.table
    return GIRPlan(
        fingerprint=plan.fingerprint,
        n=int(plan.n),
        m=int(plan.m),
        renamed=bool(plan.renamed),
        dispatch=plan.dispatch,
        out_cells=np.array(plan.out_cells, dtype=np.int64, copy=True),
        table=PowerTable(
            row_ptr=np.array(table.row_ptr, dtype=np.int64, copy=True),
            cells=np.array(table.cells, dtype=np.int64, copy=True),
            exponents=table.exponents.copy(),
        ),
        final_cell_of=(
            None
            if plan.final_cell_of is None
            else np.array(plan.final_cell_of, dtype=np.int64, copy=True)
        ),
        cap_iterations=int(plan.cap_iterations),
        cap_edge_work=int(plan.cap_edge_work),
    )


def _mutate_gir(plan: Any, kind: str, rng: random.Random) -> Optional[Mutation]:
    """The GIR power-table mutation classes (v2 CSR artifacts)."""
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
    too small for it (e.g. ``swap_rounds`` on a 1-round schedule)."""
    # zlib.crc32 rather than hash(): stable across processes
    # (str hashing is randomized by PYTHONHASHSEED).
    rng = random.Random((seed * 1_000_003) ^ zlib.crc32(kind.encode()))
    if kind.startswith("gir_"):
        return _mutate_gir(plan, kind, rng)
    if kind.startswith("chain_"):
        return _mutate_chains(plan, kind, rng)
    if not plan.has_steps:
        # a chain plan: mutate a copy whose round schedule is built
        # (the input plan stays as it was, cache included)
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

    ``kinds`` defaults by plan family: GIR CAP plans (those carrying a
    power table) get :data:`GIR_MUTATION_KINDS`; everything else gets
    the schedule classes, plus :data:`CHAIN_MUTATION_KINDS`
    on a chain plan.
    """
    if kinds is None:
        if getattr(plan, "table", None) is not None:
            kinds = GIR_MUTATION_KINDS
        else:
            kinds = MUTATION_KINDS
            if getattr(plan, "chains", None) is not None:
                kinds = kinds + CHAIN_MUTATION_KINDS
    out: List[Mutation] = []
    for kind in kinds:
        for seed in seeds:
            mut = mutate_plan(plan, kind, seed)
            if mut is not None:
                out.append(mut)
    return out
