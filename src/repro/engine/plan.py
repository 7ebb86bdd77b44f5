"""Plans: the cacheable, value-independent half of a solve.

A plan records everything the engine can derive from the index maps
alone, so repeated solves sharing ``f, g, h`` skip straight to the
value-dependent work:

* :class:`OrdinaryPlan` -- ONE execution layout chosen from the
  Lemma-1 predecessor forest by the rule chains -> levels -> rounds:
  a :class:`ChainLayout` (pred-linked arithmetic runs -- head,
  stride, length -- grouped by level, ``O(segments)`` bytes; each
  level is one ``ufunc.accumulate`` sweep) when it needs one level or
  fewer levels than pointer jumping needs rounds; else a
  :class:`ForestLevels` (the cells each iteration writes and reads,
  grouped by its depth in the forest, ``O(n)`` bytes; each level is
  one vector statement in cell space) when the forest is at most
  :data:`~repro.core.cap._LEVEL_MAX_DEPTH` (62) deep; else the
  **round schedule**: for every pointer-jumping round, the iterations
  that are active and the source each one concatenates from
  (``O(n log n)`` bytes; one gather + ``op`` + scatter per round).
  Chain and level plans build the round schedule and the predecessor
  array lazily, only for a consumer that runs rounds.
* :class:`GIRPlan` -- the (possibly renamed) output cells, the
  projection map back onto the original cells and ONE evaluation
  layout: a :class:`LevelLayout` (the dependence graph's operand
  targets plus its final nodes grouped by dependence level, ``O(n)``
  bytes; each level is one gather + ``op`` + store) when the graph is
  at most :data:`~repro.core.cap._LEVEL_MAX_DEPTH` (62) deep, else the CAP
  power table of every iteration's trace as a flat CSR-style
  :class:`PowerTable` (row-ptr / cell-id / exponent arrays, v2).  A
  level plan builds its power table lazily, only for a consumer that
  evaluates traces.  Ordinary-shaped systems carry a nested
  :class:`OrdinaryPlan` for the cheap dispatch path instead.
* :class:`MoebiusPlan` -- an :class:`OrdinaryPlan` over ``(g, f)``
  shared by every Moebius execution path (object, affine, rational):
  the dependence structure is the same regardless of how the
  matrices are represented.

Plans serialize to plain dicts (``to_dict``/``from_dict``) so they can
be persisted and shipped; the layout is stored as index lists (a
chain plan's ``chains`` payload, a level plan's ``levels``, a rounds
plan's ``steps``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.cap import _LEVEL_MAX_DEPTH, count_all_paths, deep_chain, residue
from ..core.depgraph import DependenceGraph
from ..core.traces import predecessors, writer_map
from ..obs import get_tracer, maybe_span

__all__ = [
    "OrdinaryPlan",
    "ChainLayout",
    "ForestLevels",
    "GIRPlan",
    "LevelLayout",
    "MoebiusPlan",
    "PowerTable",
    "Plan",
    "exponent_array",
    "build_round_schedule",
    "build_chain_layout",
    "build_forest_levels",
    "plan_to_dict",
    "plan_from_dict",
]

#: Ordinary and Moebius plans (chain layouts as arithmetic runs);
#: ``from_dict`` refuses any other version.
PLAN_SCHEMA_VERSION = 2
#: GIR plans moved from per-row dicts (v1) to flat arrays (v2);
#: ``GIRPlan.from_dict`` migrates v1 payloads transparently.
GIR_PLAN_SCHEMA_VERSION = 2

#: One pointer-jumping round: (active iteration ids, their sources).
RoundStep = Tuple[np.ndarray, np.ndarray]


def build_round_schedule(pred: np.ndarray) -> List[RoundStep]:
    """Simulate pointer jumping on the index structure alone.

    Replays the exact active-set progression of the value solvers --
    ``p = nxt[active]; nxt[active] = nxt[p]; active = active[nxt >= 0]``
    -- recording ``(active, p)`` per round.  The value engines then
    replay the schedule verbatim, so planned execution is
    step-for-step identical to the unplanned solvers (same rounds,
    same active sets, same operand order).
    """
    nxt = pred.copy()
    steps: List[RoundStep] = []
    active = np.nonzero(nxt >= 0)[0]
    while active.size:
        p = nxt[active]
        steps.append((active, p))
        nxt[active] = nxt[p]
        active = active[nxt[active] >= 0]
    return steps


def build_chain_layout(pred: np.ndarray) -> Optional["ChainLayout"]:
    """Cut the Lemma-1 predecessor forest into pred-linked arithmetic
    runs, or return ``None`` when pointer jumping needs no more rounds
    than the runs need levels.

    A *run* is ``head, head + stride, ...``, each member reading the
    one before it.  A link that *keeps* its parent's stride (the member
    lies as far past its parent as the parent past its predecessor)
    continues the parent's run.  Otherwise a child continues its parent
    only as the run's second member: the parent surely heads a run,
    has no stride-keeping child, and this is its first other child.
    So stride 1 cuts the index-contiguous segments, and ``k``
    interleaved stride-``k`` chains (the paper's Fig 1) are ``k`` runs.
    Heads and tails come from a few vector passes over ``n`` (a sample
    of every 17th link sends a random forest away first); sorting both
    by stride, residue and place pairs them up.  A head is seeded
    by ``pred[head]``: a terminal for a root, else a member of the
    parent run.  A run's *level* counts the runs between it and its
    root.  Levels and head depths are pointer-jumped over the ``S``
    runs, and the round count of pointer jumping follows from the
    deepest iteration: one at depth ``d`` is active in round ``r`` iff
    ``d >= 2**(r-1)``.  The layout is ``O(S)`` bytes.
    """
    n = int(pred.shape[0])
    if n == 0:
        return None
    # Every 17th iteration samples the links: when fewer than a quarter
    # keep their parent's stride or have stride 1 (a random forest),
    # run levels track depth, which pointer jumping halves each round.
    # A one-level forest still makes one level of runs.
    i = np.arange(0, n, 17)
    p = pred[i]
    up = p - pred.take(p, mode="clip")  # the parent's stride; a root's > p
    extend = ((up == i - p) & (up <= p)) | (i - p == 1)
    if 4 * np.count_nonzero(extend) < i.size and not bool((up > p).all()):
        return None
    step = np.arange(n, dtype=np.int64)
    step -= pred  # each link's stride (a root's: its index + 1)
    up = step.take(pred, mode="clip")  # the parent's; a root's exceeds it
    keep = up == step
    keep &= up <= pred

    def keep_child(i):  # i's stride-keeping child, or -1
        j = np.minimum(i + step[i], n - 1)
        return np.where(keep[j] & (pred[j] == i), j, -1)

    other = np.flatnonzero(head := ~keep)
    below = pred[other]
    second, below = other[below >= 0], below[below >= 0]
    free = keep_child(below) < 0
    below, first = np.unique(below[free], return_index=True)
    second = second[free][first]
    sure = head[below] & ~np.isin(below, second)
    second, below = second[sure], below[sure]
    head[second] = False
    heads = np.flatnonzero(head)
    S = int(heads.size)
    if 4 * S > 3 * n:
        return None  # mostly one-iteration runs: keep planning cheap
    nxt = keep_child(heads)
    nxt[np.searchsorted(heads, below)] = second
    # runs past one member first -- by stride, residue and place -- then
    # the one-member runs, by head
    long = np.flatnonzero(nxt >= 0)
    used = np.unique(nxt[long] - heads[long]).tolist()  # the runs' strides

    def key(x, stride):  # by stride, residue, then place in the progression
        out = x + stride * (2 * n + 1)
        for s in used[used[0] == 1 :]:  # (stride 1 needs no division)
            at = stride == s
            xs = x[at]
            place = xs // s  # a scalar divisor divides fast
            out[at] += (xs - place * s) * (n // s + 1) + place - xs
        return out

    lkey = key(heads[long], nxt[long] - heads[long])
    by_key = np.argsort(lkey, kind="stable")
    lkey, L = lkey[by_key], int(long.size)
    rank = np.concatenate([long[by_key], np.flatnonzero(nxt < 0)])
    runs = heads[rank]
    strides = np.maximum(nxt[rank] - runs, 1)
    # members with a next: keep links' parents (a shifted mask per
    # stride) and the seconds' parents; the other non-heads end runs
    has_next = np.zeros(n, dtype=bool)
    for s in used:
        has_next[:-s] |= keep[s:] if len(used) == 1 else keep[s:] & (step[s:] == s)
    has_next[below] = True
    has_next |= head
    tails = np.flatnonzero(~has_next)
    tails = tails[np.argsort(key(tails, step[tails]), kind="stable")]
    lengths = np.ones(S, dtype=np.int64)
    lengths[:L] += (tails - runs[:L]) // strides[:L]
    # each non-root head's parent run: the run its seed x lies in
    nonroot = pred[runs] >= 0
    x = pred[runs[nonroot]]
    found = np.searchsorted(lkey, key(x, step[x]), "right") - 1
    x_head = head[x]
    rank[rank.copy()] = np.arange(S, dtype=np.int64)  # head -> run
    found[x_head] = rank[np.searchsorted(heads, x[x_head])]
    parent = np.full(S, -1, dtype=np.int64)
    parent[nonroot] = found
    # depth(head) = depth(parent head) + (seed's place in its run) + 1
    place = np.zeros(S, dtype=np.int64)
    place[nonroot] = (x - runs[found]) // strides[found]
    level = nonroot.astype(np.int64)
    depth = np.where(nonroot, place + 1, 0)
    # a root run adds nothing: jump only over non-root parents
    anc = np.where(nonroot[np.maximum(parent, 0)], parent, -1)
    live = np.flatnonzero(anc >= 0)
    while live.size:  # synchronous pointer jumping over runs
        hop = anc[live]
        level[live] += level[hop]
        depth[live] += depth[hop]
        anc[live] = anc[hop]
        live = live[anc[live] >= 0]
    max_depth = int((depth + lengths - 1).max())
    levels = int(level.max()) + 1
    # one level always wins; past it, runs must beat pointer jumping
    if levels >= max(max_depth.bit_length(), 2):
        return None
    # Runs grouped by level, then by length (equal-length runs of one
    # level form one reshaped block).
    seg_order = np.argsort(level * (n + 1) + lengths, kind="stable")
    offsets = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(lengths[seg_order], out=offsets[1:])
    rank = np.empty(S, dtype=np.int64)
    rank[seg_order] = np.arange(S, dtype=np.int64)
    parent = parent[seg_order]
    seed_pos = np.where(
        parent >= 0, offsets[rank[np.maximum(parent, 0)]] + place[seg_order], -1
    )
    level_ptr = np.searchsorted(
        level[seg_order], np.arange(levels + 1, dtype=np.int64)
    ).astype(np.int64)
    return ChainLayout(
        heads=runs[seg_order],
        strides=strides[seg_order],
        seeds=seed_pos,
        offsets=offsets,
        level_ptr=level_ptr,
    )


def build_forest_levels(
    g: np.ndarray, f: np.ndarray, pred: np.ndarray, writer: np.ndarray
) -> Optional["ForestLevels"]:
    """Group the Lemma-1 predecessor forest's iterations by depth --
    roots at level 0 -- or return ``None`` when the forest is deeper
    than :data:`~repro.core.cap._LEVEL_MAX_DEPTH`.

    Depths are relaxed on one int8 array indexed by cell: an
    iteration's depth lands on the cell it writes, one more than the
    depth on the cell its ``f`` operand reads (its predecessor's).
    Sweep ``k`` leaves ``min(depth, k)`` on every cell and keeps only
    the iterations still climbing, so the sweeps cost the sum of the
    depths; once that passes ``2n``, one pointer-jumping test
    (:func:`~repro.core.cap.deep_chain`) finds a forest past the limit
    before its sweeps would.  A stable radix argsort of the cell
    depths then lists the written cells level by level, ascending
    within a level; ``writer`` (cell -> iteration) gives the cells
    their ``f`` operands read.
    """
    n, m = int(pred.shape[0]), int(writer.shape[0])
    depth = (writer >= 0).view(np.int8) - np.int8(1)  # 0 where written, else -1
    nonroot = pred >= 0
    w, r = np.compress(nonroot, g), np.compress(nonroot, f)
    sizes = [n - w.size]
    work, tested = 0, False
    while w.size:
        if len(sizes) > _LEVEL_MAX_DEPTH:
            return None
        work += w.size
        if not tested and work > 2 * n:
            tested = True
            if deep_chain(np.append(np.where(nonroot, pred, n), n)):
                return None
        depth[w] = depth.take(r) + 1
        climbing = depth.take(r) == len(sizes)
        w, r = np.compress(climbing, w), np.compress(climbing, r)
        sizes.append(climbing.size - w.size)
    level_ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=level_ptr[1:])
    write_cells = np.argsort(depth, kind="stable")[m - n :]
    if m > 2 * n:  # keep no slots of the unwritten cells alive
        write_cells = write_cells.copy()
    return ForestLevels(
        write_cells=write_cells,
        read_cells=f.take(writer.take(write_cells)),
        level_ptr=level_ptr,
    )


@dataclass
class ForestLevels:
    """The level strategy's ordinary plan: the iterations grouped by
    their depth in the Lemma-1 predecessor forest, kept as the cells
    they touch.

    ``write_cells[level_ptr[l]:level_ptr[l + 1]]`` are the cells the
    iterations at depth ``l`` write (their ``g``), ascending, and
    ``read_cells`` the same slice of the cells their ``f`` operands
    read.  A root (level 0) reads an initial value -- its cell is
    written, if at all, by a later iteration in no earlier level --
    and every other iteration reads its predecessor's cell, written by
    the level before.  So one ``x[w] = op(x[r], x[w])`` per level, in
    cell space, folds exactly the loop's operands in the loop's order.
    ``O(n)`` bytes and no iteration ids (the writer map of ``g``
    recovers them).
    """

    write_cells: np.ndarray  # (n,) int64 g in level order
    read_cells: np.ndarray  # (n,) int64 f in level order
    level_ptr: np.ndarray  # (levels + 1,) int64, 0 .. n

    @property
    def levels(self) -> int:
        return int(self.level_ptr.shape[0]) - 1

    @property
    def nbytes(self) -> int:
        return sum(
            int(a.nbytes) for a in (self.write_cells, self.read_cells, self.level_ptr)
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "write_cells": self.write_cells.tolist(),
            "read_cells": self.read_cells.tolist(),
            "level_ptr": self.level_ptr.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ForestLevels":
        return cls(
            **{
                key: np.asarray(payload[key], dtype=np.int64)
                for key in ("write_cells", "read_cells", "level_ptr")
            }
        )


@dataclass
class ChainLayout:
    """The chain strategy's plan: pred-linked arithmetic runs, grouped
    by level.  Segment ``s`` is the run ``heads[s] + k * strides[s]``
    at chain positions ``offsets[s] + k < offsets[s + 1]``: each member
    reads the one before it, the head the chain position ``seeds[s]``
    in an earlier level, or (``-1``) its terminal's initial value.  The
    chain order is implicit (:attr:`order`).  Segments
    ``level_ptr[l]:level_ptr[l + 1]`` form level ``l``, sorted by
    length.  ``O(segments)`` bytes; the per-solve helpers (scan blocks,
    a gather order) are derived lazily and cached, never serialized.
    """

    heads: np.ndarray  # (segments,) int64 first iteration of each run
    strides: np.ndarray  # (segments,) int64 >= 1 (1 for a one-member run)
    seeds: np.ndarray  # (segments,) int64 chain position of pred[head], or -1
    offsets: np.ndarray  # (segments + 1,) int64, 0 .. n
    level_ptr: np.ndarray  # (levels + 1,) int64 segment index per level
    _cache: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    _ARRAYS = ("heads", "strides", "seeds", "offsets", "level_ptr")

    @property
    def levels(self) -> int:
        return int(self.level_ptr.shape[0]) - 1

    @property
    def segments(self) -> int:
        return int(self.offsets.shape[0]) - 1

    @property
    def nbytes(self) -> int:
        """Bytes of the layout and of its cached helpers."""

        def size(value) -> int:
            if isinstance(value, (list, tuple)):
                return sum(size(item) for item in value)
            return int(value.nbytes) if isinstance(value, np.ndarray) else 0

        arrays = [getattr(self, name) for name in self._ARRAYS]
        return size(arrays + list(self._cache.values()))

    @property
    def order(self) -> np.ndarray:
        """The chain order: iteration ids position by position (built on
        each access; the kernels cache what they need)."""
        lengths, strides = np.diff(self.offsets), self.strides
        order = np.arange(int(self.offsets[-1]), dtype=np.int64)
        if strides.size and (strides == strides[0]).all():
            order *= strides[0]  # one stride serves every run
        else:
            order *= np.repeat(strides, lengths)
        order += np.repeat(self.heads - strides * self.offsets[:-1], lengths)
        return order

    def head_depths(self) -> np.ndarray:
        """Each segment head's depth in the predecessor forest (its
        number of ancestors), one level after another."""
        offsets, seeds = self.offsets, self.seeds
        depth = np.zeros(self.segments, dtype=np.int64)
        for level in range(1, self.levels):
            s0, s1 = int(self.level_ptr[level]), int(self.level_ptr[level + 1])
            seg = np.searchsorted(offsets, seeds[s0:s1], side="right") - 1
            depth[s0:s1] = depth[seg] + seeds[s0:s1] - offsets[seg] + 1
        return depth

    def to_payload(self) -> Dict[str, Any]:
        return {name: getattr(self, name).tolist() for name in self._ARRAYS}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ChainLayout":
        return cls(
            **{
                name: np.asarray(payload[name], dtype=np.int64)
                for name in cls._ARRAYS
            }
        )


@dataclass
class OrdinaryPlan:
    """Plan of an OrdinaryIR solve over ``(g, f, m)``.

    The planner materializes one layout: ``chains`` (a
    :class:`ChainLayout`) when its runs need one level or fewer levels
    than pointer jumping needs rounds, else ``levels`` (a
    :class:`ForestLevels`) when the predecessor forest is shallow,
    else the round schedule ``steps``.  ``steps`` and ``pred`` are
    always readable -- built from ``(g, f)`` on first access and
    cached, for the consumers that run rounds (python kernels,
    non-ufunc operators, round budgets, the checker's round rules);
    ``has_steps`` / ``has_pred`` say whether they are built.
    """

    fingerprint: str
    n: int
    m: int
    g: np.ndarray
    f: np.ndarray
    #: the Lemma-1 predecessor array as materialized (``None``: not
    #: yet); the constructor takes it as ``pred``, which reads it lazily
    _pred: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: the round schedule as materialized (``None``: not yet); the
    #: constructor takes it as ``steps``, which reads it lazily
    _steps: Optional[List[RoundStep]] = field(
        default=None, repr=False, compare=False
    )
    chains: Optional[ChainLayout] = field(default=None, repr=False, compare=False)
    levels: Optional[ForestLevels] = field(default=None, repr=False, compare=False)
    family: str = "ordinary"
    # lazily-built caches (not serialized)
    _terminal_idx: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _steps_py: Optional[List[Tuple[List[int], List[int]]]] = field(
        default=None, repr=False, compare=False
    )
    _trace_bound: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def strategy(self) -> str:
        """The layout the planner chose: ``"chains"``, ``"levels"`` or
        ``"rounds"``."""
        if self.chains is not None:
            return "chains"
        return "rounds" if self.levels is None else "levels"

    @property
    def has_steps(self) -> bool:
        """Whether the round schedule is materialized."""
        return self._steps is not None

    @property
    def has_pred(self) -> bool:
        """Whether the predecessor array is materialized."""
        return self._pred is not None

    @property
    def rounds(self) -> int:
        """Pointer-jumping rounds (never builds a lazy schedule)."""
        return len(self.active_per_round)

    @property
    def trace_bound(self) -> int:
        """Value-independent bound ``L`` on the operands folded into
        any one result: the deepest iteration's ancestors, itself and
        its terminal's ``f`` operand.  Chain and level plans know their
        depth; a rounds plan bounds it by ``2**rounds - 1``.  The
        overflow guard of the int64 add / multiply kernels reads it."""
        if self._trace_bound is None:
            if self.levels is not None:
                depth = max(self.levels.levels - 1, 0)
            elif self.chains is None:
                depth = 2**self.rounds - 1
            else:  # a run's deepest member is its last
                chains = self.chains
                depth = int((chains.head_depths() + np.diff(chains.offsets)).max()) - 1
            self._trace_bound = depth + 2
        return self._trace_bound

    @property
    def terminal_idx(self) -> np.ndarray:
        """Iterations whose ``f``-operand is an initial value (a chain
        plan's level-0 heads)."""
        if self._terminal_idx is None:
            if self.chains is not None:
                roots = self.chains.heads[: self.chains.level_ptr[1]]
                self._terminal_idx = np.sort(roots)
            else:
                self._terminal_idx = np.nonzero(self.pred < 0)[0]
        return self._terminal_idx

    @property
    def init_ops(self) -> int:
        """Terminals (level 0 of a chain or level plan: never builds
        ``pred``)."""
        layout = self.chains if self.chains is not None else self.levels
        if layout is not None and self._terminal_idx is None:
            return int(layout.level_ptr[min(1, layout.levels)])
        return int(self.terminal_idx.size)

    @property
    def active_per_round(self) -> List[int]:
        """Active iterations per pointer-jumping round.  Chain and level
        plans whose schedule is not materialized derive them from
        depths: an iteration at depth ``d`` is active in round ``r``
        iff ``d >= 2**(r-1)``."""
        if self._steps is not None or (self.chains is None and self.levels is None):
            return [int(active.size) for active, _src in self.steps]
        if self.levels is not None:
            per_depth = np.diff(self.levels.level_ptr)
        else:  # each run covers depths head .. head + length - 1
            start = self.chains.head_depths()
            stop = start + np.diff(self.chains.offsets)
            size = int(stop.max()) + 1
            per_depth = np.bincount(start, minlength=size) - np.bincount(stop)
            per_depth = np.cumsum(per_depth)[:-1]
        deeper = np.cumsum(per_depth[::-1])[::-1]  # iterations at depth >= d
        return [int(deeper[1 << r]) for r in range((deeper.size - 1).bit_length())]

    def steps_py(self) -> List[Tuple[List[int], List[int]]]:
        """The schedule as Python lists (pure-Python backend)."""
        if self._steps_py is None:
            self._steps_py = [
                (active.tolist(), src.tolist()) for active, src in self.steps
            ]
        return self._steps_py

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "schema_version": PLAN_SCHEMA_VERSION,
            "family": self.family,
            "fingerprint": self.fingerprint,
            "n": self.n,
            "m": self.m,
            "g": self.g.tolist(),
            "f": self.f.tolist(),
        }
        # lazy state only when materialized
        if self._pred is not None:
            payload["pred"] = self._pred.tolist()
        if self.chains is not None:
            payload["chains"] = self.chains.to_payload()
        if self.levels is not None:
            payload["levels"] = self.levels.to_payload()
        if self._steps is not None:
            payload["steps"] = [
                [active.tolist(), src.tolist()] for active, src in self._steps
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OrdinaryPlan":
        if payload.get("schema_version") != PLAN_SCHEMA_VERSION:
            version = PLAN_SCHEMA_VERSION
            raise ValueError(f"plan schema_version is not {version}; re-plan it")
        pred = payload.get("pred")
        steps = payload.get("steps")
        chains = payload.get("chains")
        levels = payload.get("levels")
        return cls(
            fingerprint=payload["fingerprint"],
            n=int(payload["n"]),
            m=int(payload["m"]),
            g=np.asarray(payload["g"], dtype=np.int64),
            f=np.asarray(payload["f"], dtype=np.int64),
            pred=None if pred is None else np.asarray(pred, dtype=np.int64),
            steps=None
            if steps is None
            else [
                (
                    np.asarray(active, dtype=np.int64),
                    np.asarray(src, dtype=np.int64),
                )
                for active, src in steps
            ],
            chains=None if chains is None else ChainLayout.from_payload(chains),
            levels=None if levels is None else ForestLevels.from_payload(levels),
        )


def _get_pred(plan: OrdinaryPlan) -> np.ndarray:
    if plan._pred is None:
        plan._pred = predecessors(plan.f, writer_map(plan.g, plan.m))
    return plan._pred


def _set_pred(plan: OrdinaryPlan, pred: Optional[np.ndarray]) -> None:
    plan._pred = pred


def _get_steps(plan: OrdinaryPlan) -> List[RoundStep]:
    if plan._steps is None:
        plan._steps = build_round_schedule(plan.pred)
    return plan._steps


def _set_steps(plan: OrdinaryPlan, steps: Optional[List[RoundStep]]) -> None:
    plan._steps = steps
    plan._steps_py = None


def _lazy_layout(cls, name: str, get, put) -> None:
    """Make ``name`` a lazy property of dataclass ``cls`` over its field
    ``_name``, and let the constructor take ``name=`` for that field.

    The lazy property is deliberately not a dataclass field:
    ``dataclasses.replace`` and ``asdict`` read every field, so a copy
    reads ``_name`` as it stands and never builds the layout."""
    setattr(cls, name, property(get, put))
    init, private = cls.__init__, "_" + name

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        if name in kwargs:
            kwargs[private] = kwargs.pop(name)
        init(self, *args, **kwargs)

    cls.__init__ = __init__


# Chain and level plans build the round schedule only when a rounds
# consumer reads ``steps``, and a level plan its predecessor array
# only when a consumer reads ``pred``.
_lazy_layout(OrdinaryPlan, "pred", _get_pred, _set_pred)
_lazy_layout(OrdinaryPlan, "steps", _get_steps, _set_steps)


def exponent_array(values: Any) -> np.ndarray:
    """Power-table exponents as one array: int64 when every value fits,
    else an object array of exact Python ints (Fibonacci-sized path
    counts)."""
    try:
        return np.array(values, dtype=np.int64).reshape(-1)
    except OverflowError:
        return np.array(values, dtype=object).reshape(-1)


@dataclass
class PowerTable:
    """The CAP power table of every iteration's trace, CSR-style.

    Row ``i`` holds the factors of iteration ``i``'s trace: the slice
    ``[row_ptr[i], row_ptr[i+1])`` of ``cells`` / ``exponents`` lists
    the leaf cells (strictly increasing within each row -- the order
    :func:`repro.core.gir.evaluate_trace_powers` historically sorted
    into) and the power of each cell's initial value.  ``exponents``
    is always an array (see :func:`exponent_array`): int64 when every
    path count fits -- the level pass, the DP or a converged matrix
    CAP hands over its CSR ``L`` as is, no per-row dicts -- and an
    object array of exact Python ints when exact counts leave int64
    (path counts are Fibonacci-sized).  Unless the operator it was
    planned for has a ``power_period`` ``p``: then a table whose
    counts would leave int64 stores each as its
    :func:`~repro.core.cap.residue` modulo ``p`` -- int64 in ``[1, p]``
    -- and records ``period = p``; it serves only operators of that
    period.  ``period=None`` marks exact
    counts, which serve any operator.  The vectorized evaluators read
    cached int64 views: the entries that need powering
    (:meth:`power_index`) and their period-reduced exponents.
    """

    row_ptr: np.ndarray  # (rows + 1,) int64
    cells: np.ndarray  # (nnz,) int64, sorted strictly increasing per row
    exponents: np.ndarray  # (nnz,) >= 1, int64 or object
    #: the modulus the exponents are reduced by (``None``: exact counts)
    period: Optional[int] = None
    # lazily-built caches (not serialized, not compared)
    _powered: Dict[Optional[int], Any] = field(
        default_factory=dict, repr=False, compare=False
    )
    _power_idx: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def rows(self) -> int:
        return int(self.row_ptr.shape[0]) - 1

    @property
    def nnz(self) -> int:
        return len(self.exponents)

    def exponent_list(self) -> List[int]:
        """The exponents as exact Python ints (the rows evaluator's
        and the serializer's form)."""
        return self.exponents.tolist()

    def power_index(self) -> np.ndarray:
        """Entries that need powering (the rest gather their initial
        value unpowered); cached.  That is every exponent > 1 and the
        only factor of a row: a trace folds at least two operands, so
        a one-factor row's exact count is >= 2 even where a reduced
        table stores the residue 1."""
        if self._power_idx is None:
            need = self.exponents > 1
            lengths = np.diff(self.row_ptr)
            need[self.row_ptr[:-1][lengths == 1]] = True
            self._power_idx = np.flatnonzero(need)
        return self._power_idx

    @property
    def power_entry_count(self) -> int:
        """Entries that need powering -- the solve's ``power_ops``."""
        return int(self.power_index().shape[0])

    @property
    def reduction_depth(self) -> int:
        """Parallel depth of the combine stage: ``max_i ceil(log2(nnz_i))``."""
        lengths = np.diff(self.row_ptr)
        if lengths.size == 0:
            return 0
        top = int(lengths.max())
        return (top - 1).bit_length() if top > 1 else 0

    def serves(self, period: Optional[int]) -> bool:
        """Whether the exponents power correctly for an operator of
        power period ``period``: exact counts serve any operator,
        residues only their own period."""
        return self.period is None or self.period == period

    def powered(self, period: Optional[int]):
        """``(index, reduced exponents)`` of the entries that need
        powering, int64-reduced via ``period``; ``None`` when they do
        not reduce (exact counts past int64 and no period, or a table
        reduced by another period).  Cached per period, so a cached
        plan's solves pay only the powers themselves; a table already
        reduced by ``period`` hands its exponents over as they are.
        """
        if period not in self._powered:
            idx = self.power_index()
            exps = self.exponents[idx]
            if self.period is None:
                reduced = _reduce(exps, period)
            else:
                reduced = exps if self.serves(period) else None
            self._powered[period] = None if reduced is None else (idx, reduced)
        return self._powered[period]

    def row_items(self, i: int) -> List[Tuple[int, int]]:
        """Row ``i`` as sorted ``(cell, exponent)`` pairs."""
        lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        return list(
            zip(self.cells[lo:hi].tolist(), self.exponents[lo:hi].tolist())
        )

    @classmethod
    def from_cap(cls, cap, n: int) -> "PowerTable":
        """The table of a converged :class:`~repro.core.cap.CAPResult`
        over ``n`` final nodes (and its ``period``): its CSR ``L`` as
        is -- every unbounded run (level pass or DP) and a matrix
        recurrence that converged in int64 produce one -- else the
        dict rows of a doubling run flattened."""
        if cap.leaf_csr is not None:
            row_ptr, cells, counts = cap.leaf_csr
            return cls(
                row_ptr=row_ptr, cells=cells, exponents=counts, period=cap.period
            )
        return cls.from_node_rows(cap.powers, n, period=cap.period)

    @classmethod
    def from_node_rows(
        cls, rows: List[Dict[int, int]], n: int, period: Optional[int] = None
    ) -> "PowerTable":
        """Build from CAP's converged edge sets (targets are leaf node
        ids ``n + cell``) -- the dict rows of a doubling run (dict
        doubling, an overflow promotion, a policy's fallback); one
        pass, rows come out cell-sorted."""
        row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        cells: List[int] = []
        exponents: List[int] = []
        for i, row in enumerate(rows):
            for t, x in sorted(row.items()):
                cells.append(t - n)
                exponents.append(x)
            row_ptr[i + 1] = len(cells)
        return cls(
            row_ptr=row_ptr,
            cells=np.asarray(cells, dtype=np.int64),
            exponents=exponent_array(exponents),
            period=period,
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "row_ptr": self.row_ptr.tolist(),
            "cells": self.cells.tolist(),
            # JSON carries arbitrary-precision ints natively
            "exponents": self.exponent_list(),
            "period": self.period,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PowerTable":
        period = payload.get("period")  # absent: a payload of exact counts
        return cls(
            row_ptr=np.asarray(payload["row_ptr"], dtype=np.int64),
            cells=np.asarray(payload["cells"], dtype=np.int64),
            exponents=exponent_array([int(x) for x in payload["exponents"]]),
            period=None if period is None else int(period),
        )


def _reduce(exps: np.ndarray, period: Optional[int]) -> Optional[np.ndarray]:
    """Exponents ``k >= 1`` as int64 residues modulo ``period``
    (:func:`~repro.core.cap.residue`); with no period, the int64 view
    or ``None`` when any exponent overflows."""
    if period is None:
        return exps if exps.dtype == np.int64 else None
    return residue(exps, period).astype(np.int64, copy=False)


@dataclass
class LevelLayout:
    """The level strategy's GIR plan: the dependence graph and its final
    nodes grouped by dependence level.

    ``target_f[i]`` / ``target_h[i]`` are the nodes iteration ``i``'s
    operands resolve to (:class:`~repro.core.depgraph.DependenceGraph`
    encoding: an earlier iteration ``j < n``, or ``n + c`` for cell
    ``c``'s initial value).  ``order[level_ptr[l]:level_ptr[l + 1]]``
    are the iterations at level ``l + 1`` -- the longest path below
    them -- so every operand of a level lies in an earlier level (or
    is a leaf), and one gather + ``op`` + store per level computes each
    iteration's value from exactly the loop's operands.
    """

    target_f: np.ndarray  # (n,) int64 operand node ids
    target_h: np.ndarray  # (n,) int64
    order: np.ndarray  # (n,) int64 permutation of the iterations
    level_ptr: np.ndarray  # (levels + 1,) int64, 0 .. n

    @property
    def levels(self) -> int:
        return int(self.level_ptr.shape[0]) - 1

    @property
    def nbytes(self) -> int:
        return sum(
            int(a.nbytes)
            for a in (self.target_f, self.target_h, self.order, self.level_ptr)
        )

    @classmethod
    def from_levels(
        cls, graph: DependenceGraph, level: np.ndarray
    ) -> "LevelLayout":
        """Group ``graph``'s final nodes by ``level`` (each node's level,
        ``1 .. depth``, as :func:`~repro.core.cap.node_levels` gives it)."""
        counts = np.bincount(level, minlength=1)[1:]
        level_ptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=level_ptr[1:])
        return cls(
            target_f=graph.target_f,
            target_h=graph.target_h,
            order=np.argsort(level, kind="stable").astype(np.int64, copy=False),
            level_ptr=level_ptr,
        )

    def graph(self, n: int, m: int) -> DependenceGraph:
        """The dependence graph over ``n`` final nodes and ``m`` cells."""
        return DependenceGraph(
            n=n, m=m, target_f=self.target_f, target_h=self.target_h
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "target_f": self.target_f.tolist(),
            "target_h": self.target_h.tolist(),
            "order": self.order.tolist(),
            "level_ptr": self.level_ptr.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "LevelLayout":
        return cls(
            **{
                key: np.asarray(payload[key], dtype=np.int64)
                for key in ("target_f", "target_h", "order", "level_ptr")
            }
        )


@dataclass
class GIRPlan:
    """Plan of a GIR solve (schema v2: array-backed power table).

    Either ``dispatch`` is set (ordinary-shaped system: the nested
    :class:`OrdinaryPlan` runs instead of the CAP pipeline), or the
    trace artifacts are: ``out_cells[i]``, the cell iteration ``i``
    writes in the (possibly renamed) working system; ``final_cell_of``,
    projecting the renamed array back onto the original cells
    (``None`` when no renaming happened); and an evaluation layout.
    That is ``levels`` (a :class:`LevelLayout`) on a graph the planner
    found shallow, else ``table`` -- the flat :class:`PowerTable` whose
    row ``i`` maps leaf cells (< original ``m``) to the power of their
    initial value in iteration ``i``'s trace.  ``table`` is always
    readable: on a level plan CAP builds it from the layout's graph on
    first access and caches it (``has_table`` says whether it is
    built), for the consumers that evaluate traces.
    """

    fingerprint: str
    n: int
    m: int
    renamed: bool = False
    dispatch: Optional[OrdinaryPlan] = None
    out_cells: Optional[np.ndarray] = None
    #: the power table as built (``None``: not yet); the constructor
    #: takes it as ``table``, which reads it lazily
    _table: Optional[PowerTable] = field(default=None, repr=False, compare=False)
    final_cell_of: Optional[np.ndarray] = None
    cap_iterations: int = 0
    cap_edge_work: int = 0
    levels: Optional[LevelLayout] = field(default=None, repr=False, compare=False)
    family: str = "gir"

    @property
    def strategy(self) -> str:
        """The layout the planner chose: ``"levels"`` or ``"traces"``
        (the power table; a dispatch plan has neither)."""
        return "traces" if self.levels is None else "levels"

    @property
    def has_table(self) -> bool:
        """Whether the power table is materialized."""
        return self._table is not None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "schema_version": GIR_PLAN_SCHEMA_VERSION,
            "family": self.family,
            "fingerprint": self.fingerprint,
            "n": self.n,
            "m": self.m,
            "renamed": self.renamed,
            "dispatch": None if self.dispatch is None else self.dispatch.to_dict(),
            "out_cells": None
            if self.out_cells is None
            else self.out_cells.tolist(),
            # a level plan's table only when materialized
            "table": None if self._table is None else self._table.to_payload(),
            "final_cell_of": None
            if self.final_cell_of is None
            else self.final_cell_of.tolist(),
            "cap_iterations": self.cap_iterations,
            "cap_edge_work": self.cap_edge_work,
        }
        if self.levels is not None:
            payload["levels"] = self.levels.to_payload()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GIRPlan":
        levels = payload.get("levels")
        return cls(
            fingerprint=payload["fingerprint"],
            n=int(payload["n"]),
            m=int(payload["m"]),
            renamed=bool(payload["renamed"]),
            dispatch=None
            if payload["dispatch"] is None
            else OrdinaryPlan.from_dict(payload["dispatch"]),
            out_cells=None
            if payload["out_cells"] is None
            else np.asarray(payload["out_cells"], dtype=np.int64),
            table=None
            if payload.get("table") is None
            else PowerTable.from_payload(payload["table"]),
            final_cell_of=None
            if payload["final_cell_of"] is None
            else np.asarray(payload["final_cell_of"], dtype=np.int64),
            cap_iterations=int(payload["cap_iterations"]),
            cap_edge_work=int(payload["cap_edge_work"]),
            levels=None if levels is None else LevelLayout.from_payload(levels),
        )


def _get_table(plan: GIRPlan) -> Optional[PowerTable]:
    if plan._table is None and plan.levels is not None:
        # CAP over the layout's graph: a graph this shallow takes the
        # level pass, whose int64 counts never need a period.
        work_m = plan.m + plan.n if plan.renamed else plan.m
        graph = plan.levels.graph(plan.n, work_m)
        with maybe_span(get_tracer(), "gir.cap") as csp:
            cap = count_all_paths(graph)
            if csp is not None:
                csp.set_attribute("depth", graph.depth())
                csp.set_attribute("period", cap.period)
        plan._table = PowerTable.from_cap(cap, plan.n)
        plan.cap_iterations, plan.cap_edge_work = cap.iterations, cap.edge_work
    return plan._table


def _set_table(plan: GIRPlan, table: Optional[PowerTable]) -> None:
    plan._table = table


# A level plan builds its power table only when a trace consumer reads
# ``table``.
_lazy_layout(GIRPlan, "table", _get_table, _set_table)


@dataclass
class MoebiusPlan:
    """Plan of a Moebius solve: the shared ordinary layout over
    ``(g, f)``; every numeric path (object / affine / rational)
    replays it over its own representation."""

    fingerprint: str
    n: int
    m: int
    ordinary: OrdinaryPlan = None  # type: ignore[assignment]
    family: str = "moebius"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "family": self.family,
            "fingerprint": self.fingerprint,
            "n": self.n,
            "m": self.m,
            "ordinary": self.ordinary.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MoebiusPlan":
        return cls(  # the nested ordinary plan checks the schema
            fingerprint=payload["fingerprint"],
            n=int(payload["n"]),
            m=int(payload["m"]),
            ordinary=OrdinaryPlan.from_dict(payload["ordinary"]),
        )


Plan = Union[OrdinaryPlan, GIRPlan, MoebiusPlan]

_PLAN_CLASSES = {
    "ordinary": OrdinaryPlan,
    "gir": GIRPlan,
    "moebius": MoebiusPlan,
}


def plan_to_dict(plan: Plan) -> Dict[str, Any]:
    """Serialize any plan to a JSON-compatible dict."""
    return plan.to_dict()


def plan_from_dict(payload: Dict[str, Any]) -> Plan:
    """Inverse of :func:`plan_to_dict` (dispatches on ``family``)."""
    family = payload.get("family")
    if family not in _PLAN_CLASSES:
        raise ValueError(f"unknown plan family {family!r}")
    return _PLAN_CLASSES[family].from_dict(payload)
