"""Plans: the cacheable, value-independent half of a solve.

A plan records everything the engine can derive from the index maps
alone, so repeated solves sharing ``f, g, h`` skip straight to the
value-dependent work:

* :class:`OrdinaryPlan` -- of an ordinary or a Moebius system (the
  dependence structure is the same however the Moebius maps are
  represented): ONE execution layout chosen from the Lemma-1
  predecessor forest by the rule chains -> levels -> rounds.  Chain
  and level plans hold one :class:`LevelLayout` in cell space -- the
  cells the iterations write, cut into pred-linked segments grouped
  by level, and each segment's seed cell.  Its segments are
  arithmetic runs (head, stride, length; ``offsets`` set) when they
  need one level or fewer levels than pointer jumping needs rounds,
  else single iterations grouped by depth when the forest is at most
  :data:`~repro.core.cap._LEVEL_MAX_DEPTH` (62) deep; each level is a
  vector statement over its single iterations and a
  ``ufunc.accumulate`` along its runs, on the values in place.  Else
  ``pred`` alone (``O(n)`` words): every pointer-jumping round
  follows from it, and :meth:`OrdinaryPlan.round_steps` builds the
  round schedule in memory only.  No plan keeps the maps ``g`` / ``f``,
  and a layout whose written cells are one range keeps its first.
* :class:`GIRPlan` -- whether the system was renamed, the projection
  map back onto the original cells and ONE evaluation layout (no
  output cells: they are the system's ``g``, or the version cells
  ``m .. m + n - 1`` of a renamed one): a :class:`LevelLayout` in node space (the dependence graph's
  final nodes grouped by dependence level with the nodes their
  operands read, ``O(n)`` bytes; each level is one vector statement
  over an ``(n + m)`` node buffer) when the graph is at most
  :data:`~repro.core.cap._LEVEL_MAX_DEPTH` (62) deep, else the CAP
  power table of every iteration's trace as a flat CSR-style
  :class:`PowerTable` (row-ptr / cell-id / exponent arrays).  A
  level plan builds its power table lazily, only for a consumer that
  evaluates traces.  Ordinary-shaped systems carry a nested
  :class:`OrdinaryPlan` for the cheap dispatch path instead.

Plans serialize to plain dicts (``to_dict``/``from_dict``) so they can
be persisted and shipped; the layout is stored as index lists (a
chain or level plan's ``levels``, a one-range ``write`` as its
``start``; a rounds plan's ``pred``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.cap import _LEVEL_MAX_DEPTH, count_all_paths, deep_chain, residue
from ..core.depgraph import DependenceGraph
from ..core.traces import predecessors, writer_map
from ..obs import get_tracer, maybe_span

__all__ = [
    "OrdinaryPlan",
    "GIRPlan",
    "LevelLayout",
    "PowerTable",
    "Plan",
    "exponent_array",
    "build_round_schedule",
    "build_chain_layout",
    "build_forest_levels",
    "plan_to_dict",
    "plan_from_dict",
]

#: Ordinary and Moebius plans (v7: one cell layout for chain and level
#: plans, its one-range ``write`` as ``start``; ``pred`` alone for
#: rounds plans; no ``g`` / ``f``); ``from_dict`` refuses any other
#: version.
PLAN_SCHEMA_VERSION = 7
#: GIR plans (v4: level layouts as write / read slots, a one-range
#: ``write`` as ``start``; no output cells; a dispatch plan nests a v7
#: ordinary plan); ``from_dict`` refuses any other version.
GIR_PLAN_SCHEMA_VERSION = 4

#: One pointer-jumping round: (active iteration ids, their sources).
RoundStep = Tuple[np.ndarray, np.ndarray]


def build_round_schedule(pred: np.ndarray) -> List[RoundStep]:
    """Simulate pointer jumping on the index structure alone.

    Replays the exact active-set progression of the value solvers --
    ``p = nxt[active]; nxt[active] = nxt[p]; active = active[nxt >= 0]``
    -- recording ``(active, p)`` per round.  The round kernels then
    replay the schedule verbatim, so planned execution is
    step-for-step identical to the unplanned solvers (same rounds,
    same active sets, same operand order).  ``pred[i]`` must lie in
    ``[-1, i)`` (Lemma 1's loop order, which also makes it acyclic);
    any other entry raises ``ValueError``.
    """
    if ((pred < -1) | (pred >= np.arange(pred.shape[0]))).any():
        raise ValueError("pred[i] must lie in [-1, i) (Lemma 1's loop order)")
    nxt = pred.copy()
    steps: List[RoundStep] = []
    active = np.nonzero(nxt >= 0)[0]
    while active.size:
        p = nxt[active]
        steps.append((active, p))
        nxt[active] = nxt[p]
        active = active[nxt[active] >= 0]
    return steps


def build_chain_layout(
    g: np.ndarray, f: np.ndarray, pred: np.ndarray
) -> Optional["LevelLayout"]:
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
    ``d >= 2**(r-1)``.  The layout, in cell space, lists every
    member's write cell in run order and each run's seed cell (its
    head's ``f`` operand).
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
    # synchronous pointer jumping over runs; a root run adds nothing, so
    # a run whose parent is a root, and a run done, points at the zero
    # run ``S``
    level = np.zeros(S + 1, dtype=np.int64)
    level[:S] = nonroot
    depth = np.zeros(S + 1, dtype=np.int64)
    depth[:S] = np.where(nonroot, place + 1, 0)
    anc = np.full(S + 1, S, dtype=np.int64)
    anc[:S] = np.where(nonroot[np.maximum(parent, 0)], parent, S)
    # levels only grow and every depth is below n: once they reach
    # what n's deepest forest allows, the test below refuses the runs
    cap = max((n - 1).bit_length(), 2)
    while int(level.max()) + 1 < cap and bool((anc < S).any()):
        level += level.take(anc)
        depth += depth.take(anc)
        anc = anc.take(anc)
    level, depth = level[:S], depth[:S]
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
    level_ptr = np.searchsorted(
        level[seg_order], np.arange(levels + 1, dtype=np.int64)
    ).astype(np.int64)
    heads, strides = runs[seg_order], strides[seg_order]
    # the chain order: iteration ids position by position
    order = np.arange(n, dtype=np.int64)
    if (strides == strides[0]).all():
        order *= strides[0]  # one stride serves every run
    else:
        order *= np.repeat(strides, lengths[seg_order])
    order += np.repeat(heads - strides * offsets[:-1], lengths[seg_order])
    return LevelLayout(
        write=g.take(order),
        read=f.take(heads),
        read_h=None,
        level_ptr=level_ptr,
        offsets=offsets,
    )


def build_forest_levels(
    g: np.ndarray, f: np.ndarray, pred: np.ndarray, writer: np.ndarray
) -> Optional["LevelLayout"]:
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
    their ``f`` operands read.  The layout's slots are cells, and each
    ``h`` operand is its own write cell (``read_h=None``).
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
    write = np.argsort(depth, kind="stable")[m - n :]
    if m > 2 * n:  # keep no slots of the unwritten cells alive
        write = write.copy()
    read = f.take(writer.take(write))
    return LevelLayout(write=write, read=read, read_h=None, level_ptr=level_ptr)


def _is_range(a: np.ndarray) -> bool:
    """Whether ``a`` is ``a[0], a[0] + 1, ...``: compared a block at a
    time, so no temporary is as long as ``a`` and most other arrays fail
    on their first block."""
    block = np.arange(1 << 16, dtype=np.int64)
    for lo in range(0, a.size, block.size):
        part = a[lo : lo + block.size]
        if not np.array_equal(part, block[: part.size] + (int(a[0]) + lo)):
            return False
    return True


@dataclass
class LevelLayout:
    """The one layout of chain and level plans, for every plan family:
    the iterations cut into pred-linked *segments*, grouped by
    dependence level, kept as the slots they touch.

    ``write`` lists the slot each iteration writes, segment by segment
    and member by member; segment ``s`` is the positions
    ``offsets[s]:offsets[s + 1]`` (``offsets=None``: every segment is
    one iteration, ``s`` itself), and segments
    ``level_ptr[l]:level_ptr[l + 1]`` form level ``l``.  When the
    written slots are one ascending range -- Lemma 1's canonical loop
    ``A[i+1] := A[i] op A[i+1]`` writes ``1 .. n`` -- the layout keeps
    only the first, ``start``, and ``write`` reads as the range (built
    per read; the kernels take it as a ``slice``, :meth:`written`).
    Assigning ``write`` stores the array again, so in-place edits of it
    land.  ``read[s]`` is
    the slot segment ``s``'s head reads as its ``f`` operand (its
    seed); every later member reads the slot the member before it
    writes.  ``read_h`` lists each iteration's ``h`` operand slot
    (``None``: its own write slot -- the ordinary ``h = g``; only
    one-iteration segments carry it).  A seed another iteration writes
    comes from an earlier level, so one statement per level -- a
    ``x[w] = op(x[r], x[r_h or w])`` sweep over one-iteration segments
    (:func:`~repro.engine.exec_ordinary.sweep_level`), a left-to-right
    scan along longer ones -- folds exactly the loop's operands in the
    loop's order.

    What a slot means is the plan's business.  An ordinary or Moebius
    plan's slots are cells and the sweeps run in place: its roots sit
    in level 0 and read initial values.  A GIR plan's slots are its
    dependence graph's nodes (:class:`~repro.core.depgraph.DependenceGraph`
    encoding: iteration ``i``'s result at ``i``, cell ``c``'s initial
    value at ``n + c``, a slot never written), so ``write`` lists the
    iterations themselves.  ``O(segments)`` bytes plus ``O(n)`` for a
    stored ``write`` or ``read_h``; the scan blocks a kernel derives
    from ``offsets`` are cached (:attr:`cache`), never serialized.
    """

    read: np.ndarray  # (segments,) int64 slots the heads' f operands read
    read_h: Optional[np.ndarray]  # (n,) int64 slots the h operands read
    level_ptr: np.ndarray  # (levels + 1,) int64, 0 .. segments
    offsets: Optional[np.ndarray] = None  # (segments + 1,) int64, 0 .. n
    #: the first written slot of a one-range layout (``None``: ``write``
    #: is stored); the constructor takes the slots as ``write``
    start: Optional[int] = None
    #: the slots written, in segment order, when not one range
    _write: Optional[np.ndarray] = field(default=None, repr=False)
    cache: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    _ARRAYS = ("write", "read", "read_h", "level_ptr", "offsets")

    def __post_init__(self) -> None:
        write = self._write
        if write is not None and write.size and _is_range(write):
            self.start, self._write = int(write[0]), None

    @property
    def levels(self) -> int:
        return int(self.level_ptr.shape[0]) - 1

    @property
    def segments(self) -> int:
        return int(self.read.shape[0])

    @property
    def size(self) -> int:
        """Iterations the layout writes."""
        if self._write is not None:
            return int(self._write.shape[0])
        if self.offsets is None:
            return self.segments
        return int(self.offsets[-1]) if self.offsets.size else 0

    def written(self, lo: int, hi: int):
        """The slots positions ``lo:hi`` write: a ``slice`` on a
        one-range layout (nothing materialized), else a view of the
        stored ``write``."""
        if self._write is None:
            return slice(self.start + lo, self.start + hi)
        return self._write[lo:hi]

    @property
    def nbytes(self) -> int:
        """Bytes of the stored arrays and of the cached scan blocks (a
        block's view of the layout's arrays, or a ``slice``, adds none)."""

        def size(value) -> int:
            if isinstance(value, (list, tuple)):
                return sum(size(item) for item in value)
            own = isinstance(value, np.ndarray) and value.base is None
            return int(value.nbytes) if own else 0

        arrays = (self._write, self.read, self.read_h, self.level_ptr, self.offsets)
        layout = sum(int(a.nbytes) for a in arrays if a is not None)
        return layout + size(list(self.cache.values()))

    @classmethod
    def from_graph(cls, graph: DependenceGraph, level: np.ndarray) -> "LevelLayout":
        """A GIR plan's layout: ``graph``'s final nodes grouped by
        ``level`` (each node's level, ``1 .. depth``, as
        :func:`~repro.core.cap.node_levels` gives it), with the nodes
        their operands read in the same order."""
        counts = np.bincount(level, minlength=1)[1:]
        level_ptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=level_ptr[1:])
        order = np.argsort(level, kind="stable").astype(np.int64, copy=False)
        return cls(
            write=order,
            read=graph.target_f.take(order),
            read_h=graph.target_h.take(order),
            level_ptr=level_ptr,
        )

    def to_payload(self) -> Dict[str, Any]:
        """The stored arrays as lists, and ``start`` in place of a
        one-range ``write``."""
        payload = {
            name: None if a is None else a.tolist()
            for name, a in (
                ("read", self.read),
                ("read_h", self.read_h),
                ("level_ptr", self.level_ptr),
                ("offsets", self.offsets),
            )
        }
        if self._write is None:
            payload["start"] = self.start
        else:
            payload["write"] = self._write.tolist()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "LevelLayout":
        arrays = {name: payload.get(name) for name in cls._ARRAYS}
        start = payload.get("start")
        if (start is None) == (arrays["write"] is None):
            raise ValueError("a level layout stores either write or start")
        return cls(
            start=None if start is None else operator.index(start),
            **{
                name: None if a is None else np.asarray(a, dtype=np.int64)
                for name, a in arrays.items()
            },
        )


@dataclass
class OrdinaryPlan:
    """Plan of an OrdinaryIR solve over ``(g, f, m)`` -- or of a Moebius
    solve (``family="moebius"``), whose every numeric path (object,
    affine, rational) replays the same dependence structure.

    The planner materializes one layout: ``levels`` (a
    :class:`LevelLayout` over cells) -- pred-linked runs (``offsets``
    set, the ``chains`` strategy) when they need one level or fewer
    levels than pointer jumping needs rounds, else one-iteration
    segments when the predecessor forest is shallow (the ``levels``
    strategy) -- else ``pred`` alone (the ``rounds`` strategy).  No
    plan holds the maps ``g`` / ``f``: the layout's ``write`` /
    ``read`` are the same maps in segment order, and the fingerprint
    binds the plan to the system whose maps they are.  A consumer that
    runs rounds gets the round schedule from :meth:`round_steps` alone,
    where a chain or level plan builds ``pred`` too (``has_pred``).
    """

    fingerprint: str
    n: int
    m: int
    #: the Lemma-1 predecessor array as materialized (``None``: not
    #: yet); the constructor takes it as ``pred``, which reads it lazily
    _pred: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    levels: Optional[LevelLayout] = field(default=None, repr=False, compare=False)
    family: str = "ordinary"
    # lazily-built caches (not serialized)
    #: the round schedule, once :meth:`round_steps` built it
    _steps: Optional[List[RoundStep]] = field(
        default=None, repr=False, compare=False
    )
    _terminal_idx: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _trace_bound: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def strategy(self) -> str:
        """The layout the planner chose: ``"chains"`` (runs),
        ``"levels"`` (one-iteration segments) or ``"rounds"``."""
        if self.levels is None:
            return "rounds"
        return "levels" if self.levels.offsets is None else "chains"

    @property
    def has_pred(self) -> bool:
        """Whether the predecessor array is materialized."""
        return self._pred is not None

    @property
    def rounds(self) -> int:
        """Pointer-jumping rounds (a chain or level plan's from depths)."""
        return len(self.active_per_round)

    def _per_depth(self) -> np.ndarray:
        """Iterations per depth in the predecessor forest, from the
        layout: a level of one-iteration segments is one depth; a run
        covers its head's depth and one more per member, and a head
        lies one deeper than the member that writes its seed cell."""
        layout = self.levels
        if layout.offsets is None:
            return np.diff(layout.level_ptr)
        offsets, ptr, first = layout.offsets, layout.level_ptr, layout.start
        if first is None and layout.levels > 1:  # cell -> position
            position = np.empty(self.m, dtype=np.int64)
            position[layout.write] = np.arange(self.n, dtype=np.int64)
        start = np.zeros(layout.segments, dtype=np.int64)
        for level in range(1, layout.levels):
            s0, s1 = int(ptr[level]), int(ptr[level + 1])
            seeds = layout.read[s0:s1]
            pos = seeds - first if first is not None else position.take(seeds)
            seg = np.searchsorted(offsets, pos, side="right") - 1
            start[s0:s1] = start[seg] + pos - offsets[seg] + 1
        stop = start + np.diff(offsets)
        size = int(stop.max()) + 1
        per_depth = np.bincount(start, minlength=size) - np.bincount(stop)
        return np.cumsum(per_depth)[:-1]

    @property
    def trace_bound(self) -> int:
        """Value-independent bound ``L`` on the operands folded into
        any one result: the deepest iteration's ancestors, itself and
        its terminal's ``f`` operand.  Chain and level plans know their
        depth; a rounds plan bounds it by ``2**rounds - 1``.  The
        overflow guard of the int64 add / multiply kernels reads it."""
        if self._trace_bound is None:
            if self.levels is None:
                depth = 2**self.rounds - 1
            else:
                depth = max(int(self._per_depth().shape[0]) - 1, 0)
            self._trace_bound = depth + 2
        return self._trace_bound

    @property
    def terminal_idx(self) -> np.ndarray:
        """Iterations whose ``f``-operand is an initial value (reads
        ``pred``: a chain or level plan's rounds consumer builds it
        first through :meth:`round_steps`)."""
        if self._terminal_idx is None:
            self._terminal_idx = np.nonzero(self.pred < 0)[0]
        return self._terminal_idx

    @property
    def init_ops(self) -> int:
        """Terminals (level 0's segments on a chain or level plan:
        never builds ``pred``)."""
        layout = self.levels
        if layout is not None and self._terminal_idx is None:
            return int(layout.level_ptr[min(1, layout.levels)])
        return int(self.terminal_idx.size)

    @property
    def active_per_round(self) -> List[int]:
        """Active iterations per pointer-jumping round.  Chain and level
        plans whose schedule is not built derive them from depths: an
        iteration at depth ``d`` is active in round ``r`` iff
        ``d >= 2**(r-1)``; a rounds plan builds its schedule."""
        if self._steps is not None or self.levels is None:
            return [int(active.size) for active, _src in self.round_steps()]
        deeper = np.cumsum(self._per_depth()[::-1])[::-1]  # at depth >= d
        return [int(deeper[1 << r]) for r in range((deeper.size - 1).bit_length())]

    def round_steps(self, g=None, f=None) -> List[RoundStep]:
        """The round schedule, for a consumer that runs rounds -- the
        only way to get one.  Built on first call from ``pred``: a
        rounds plan's own, else derived (and kept) from the system's
        maps ``g`` / ``f``, which a chain or level plan does not hold.
        Then cached in memory (:func:`~repro.engine.planner.plan_nbytes`
        counts it); never serialized."""
        if self._steps is None:
            if self._pred is None and g is not None:
                self._pred = predecessors(f, writer_map(g, self.m))
            self._steps = build_round_schedule(self.pred)
        return self._steps

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "schema_version": PLAN_SCHEMA_VERSION,
            "family": self.family,
            "fingerprint": self.fingerprint,
            "n": self.n,
            "m": self.m,
        }
        if self.levels is not None:  # the layout alone: no lazy state
            payload["levels"] = self.levels.to_payload()
            return payload
        payload["pred"] = self.pred.tolist()  # every round follows from it
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OrdinaryPlan":
        if payload.get("schema_version") != PLAN_SCHEMA_VERSION:
            version = PLAN_SCHEMA_VERSION
            raise ValueError(f"plan schema_version is not {version}; re-plan it")
        plan = cls(
            fingerprint=payload["fingerprint"],
            n=int(payload["n"]),
            m=int(payload["m"]),
            family=payload["family"],
        )
        levels = payload.get("levels")
        if levels is not None:  # a chain or level plan reads its layout alone
            plan.levels = LevelLayout.from_payload(levels)
            return plan
        plan.pred = np.asarray(payload["pred"], dtype=np.int64)
        return plan


def _get_pred(plan: OrdinaryPlan) -> np.ndarray:
    if plan._pred is None:
        raise ValueError(
            "a chain or level plan holds no index maps: build its round "
            "schedule with plan.round_steps(g, f) from the system's maps"
        )
    return plan._pred


def _lazy_layout(cls, name: str, get, put=None) -> None:
    """Make ``name`` a lazy property of dataclass ``cls`` over its field
    ``_name`` (``get`` builds it; assigning sets the field, or calls
    ``put``), and let the constructor take ``name=`` for that field.

    The lazy property is deliberately not a dataclass field:
    ``dataclasses.replace`` and ``asdict`` read every field, so a copy
    reads ``_name`` as it stands and never builds the layout."""
    init, private = cls.__init__, "_" + name
    if put is None:

        def put(self, value):
            setattr(self, private, value)

    setattr(cls, name, property(get, put))

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        if name in kwargs:
            kwargs[private] = kwargs.pop(name)
        init(self, *args, **kwargs)

    cls.__init__ = __init__


# A chain or level plan builds its predecessor array only when a
# rounds consumer asks :meth:`OrdinaryPlan.round_steps` for it.
_lazy_layout(OrdinaryPlan, "pred", _get_pred)


def _get_write(layout: LevelLayout) -> np.ndarray:
    if layout._write is not None:
        return layout._write
    return np.arange(layout.start, layout.start + layout.size, dtype=np.int64)


def _put_write(layout: LevelLayout, write: np.ndarray) -> None:
    layout._write, layout.start = write, None


# A one-range layout's ``write`` is its range, built per read; an
# assigned one is stored.
_lazy_layout(LevelLayout, "write", _get_write, _put_write)


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
class GIRPlan:
    """Plan of a GIR solve.

    Either ``dispatch`` is set (ordinary-shaped system: the nested
    :class:`OrdinaryPlan` runs instead of the CAP pipeline), or the
    trace artifacts are: ``renamed``, whether the working system is
    the system's single-assignment renaming
    (:func:`~repro.core.equations.normalize_non_distinct`: iteration
    ``i`` writes version cell ``m + i``; else it writes the system's
    ``g[i]``, which the plan does not copy); ``final_cell_of``,
    projecting the renamed array back onto the original cells (set
    iff ``renamed``); and an evaluation layout.
    That is ``levels`` (a :class:`LevelLayout` over the dependence
    graph's nodes) on a graph the planner found shallow, else ``table`` -- the flat :class:`PowerTable` whose
    row ``i`` maps leaf cells (< original ``m``) to the power of their
    initial value in iteration ``i``'s trace.  ``table`` is always
    readable: on a level plan CAP builds it from the graph the layout
    holds (one scatter of its reads) on first access and caches it (``has_table`` says whether it is
    built), for the consumers that evaluate traces.
    """

    fingerprint: str
    n: int
    m: int
    renamed: bool = False
    dispatch: Optional[OrdinaryPlan] = None
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
        if payload.get("schema_version") != GIR_PLAN_SCHEMA_VERSION:
            version = GIR_PLAN_SCHEMA_VERSION
            raise ValueError(f"plan schema_version is not {version}; re-plan it")
        levels = payload.get("levels")
        return cls(
            fingerprint=payload["fingerprint"],
            n=int(payload["n"]),
            m=int(payload["m"]),
            renamed=bool(payload["renamed"]),
            dispatch=None
            if payload["dispatch"] is None
            else OrdinaryPlan.from_dict(payload["dispatch"]),
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
        # CAP over the layout's graph (its reads scattered back to
        # iteration order): a graph this shallow takes the level pass,
        # whose int64 counts never need a period.
        layout, n = plan.levels, plan.n
        targets = np.empty((2, n), dtype=np.int64)
        targets[:, layout.written(0, n)] = layout.read, layout.read_h
        work_m = plan.m + n if plan.renamed else plan.m
        graph = DependenceGraph(n=n, m=work_m, target_f=targets[0], target_h=targets[1])
        with maybe_span(get_tracer(), "gir.cap") as csp:
            cap = count_all_paths(graph)
            if csp is not None:
                csp.set_attribute("depth", graph.depth())
                csp.set_attribute("period", cap.period)
        plan._table = PowerTable.from_cap(cap, plan.n)
        plan.cap_iterations, plan.cap_edge_work = cap.iterations, cap.edge_work
    return plan._table


# A level plan builds its power table only when a trace consumer reads
# ``table``.
_lazy_layout(GIRPlan, "table", _get_table)


Plan = Union[OrdinaryPlan, GIRPlan]

_PLAN_CLASSES = {
    "ordinary": OrdinaryPlan,
    "gir": GIRPlan,
    "moebius": OrdinaryPlan,
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
