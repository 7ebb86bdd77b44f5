"""Plans: the cacheable, value-independent half of a solve.

A plan records everything the engine can derive from the index maps
alone, so repeated solves sharing ``f, g, h`` skip straight to the
value-dependent work:

* :class:`OrdinaryPlan` -- the Lemma-1 predecessor array and ONE
  execution layout chosen from the index structure: a
  :class:`ChainLayout` (a permutation of the iterations into
  pred-linked chains plus segment offsets grouped by level, ``O(n)``
  bytes; each level is one ``ufunc.accumulate`` sweep) when it needs
  fewer levels than pointer jumping needs rounds, else the **round
  schedule**: for every pointer-jumping round, the iterations that are
  active and the source each one concatenates from (``O(n log n)``
  bytes; one gather + ``op`` + scatter per round).  A chain plan
  builds the round schedule lazily, only for a consumer that runs
  rounds.
* :class:`GIRPlan` -- the (possibly renamed) output cells, the CAP
  power table of every iteration's trace as a flat CSR-style
  :class:`PowerTable` (row-ptr / cell-id / exponent arrays, v2), the
  projection map back onto the original cells, and -- for ordinary-
  shaped systems -- a nested :class:`OrdinaryPlan` for the cheap
  dispatch path.  The historical per-row dict ``tables`` survive as a
  lazily-built read-only view; v1 payloads still deserialize.
* :class:`MoebiusPlan` -- an :class:`OrdinaryPlan` over ``(g, f)``
  shared by every Moebius execution path (object, affine, rational):
  the pointer-jumping structure is the same regardless of how the
  matrices are represented.

Plans serialize to plain dicts (``to_dict``/``from_dict``) so they can
be persisted and shipped; the layout is stored as index lists (a
chain plan's ``chains`` payload, a rounds plan's ``steps``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "OrdinaryPlan",
    "ChainLayout",
    "GIRPlan",
    "MoebiusPlan",
    "PowerTable",
    "Plan",
    "exponent_array",
    "build_round_schedule",
    "build_chain_layout",
    "plan_to_dict",
    "plan_from_dict",
]

PLAN_SCHEMA_VERSION = 1
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
    """Decompose the Lemma-1 predecessor forest into chains, or return
    ``None`` when pointer jumping needs no more rounds than the chains
    need levels.

    A *segment* is a maximal run of consecutive iterations each reading
    its left neighbour (``pred[i] == i - 1``): a pred-linked path in
    index order whose positions are plain arithmetic, found with one
    vector compare.  A segment's head is seeded by ``pred[head]`` --
    the terminal's initial value for a root, else a value in the
    parent segment.  Its *level* counts the segment boundaries between
    it and its root; a level only reads levels before it.  Levels and
    head depths are pointer-jumped over the segments (not the
    iterations), ``O(S log levels)`` for ``S`` segments, and the round
    count of pointer jumping follows from the deepest iteration
    without simulating it: an iteration at depth ``d`` is active in
    round ``r`` iff ``d >= 2**(r-1)``.

    Only index structure is read; the chain layout is ``O(n)`` bytes.
    """
    n = int(pred.shape[0])
    if n == 0:
        return None
    idx = np.arange(n, dtype=np.int64)
    is_head = pred != idx - 1
    is_head[0] = True
    heads = np.flatnonzero(is_head)
    if 4 * heads.size > 3 * n:
        # Mostly one-iteration segments: the chain levels track depth,
        # which pointer jumping halves each round -- keep planning cheap.
        return None
    seg_of = np.cumsum(is_head) - 1
    seeds = pred[heads]
    nonroot = seeds >= 0
    parent = np.where(nonroot, seg_of[np.maximum(seeds, 0)], -1)
    level = nonroot.astype(np.int64)
    # depth(head) = depth(parent head) + (seed - parent head) + 1
    depth = np.where(nonroot, seeds - heads[np.maximum(parent, 0)] + 1, 0)
    anc = parent.copy()
    live = np.flatnonzero(anc >= 0)
    while live.size:  # synchronous pointer jumping over segments
        up = anc[live]
        level[live] += level[up]
        depth[live] += depth[up]
        anc[live] = anc[up]
        live = live[anc[live] >= 0]
    lengths = np.diff(np.append(heads, n))
    max_depth = int((depth + lengths - 1).max())
    rounds = max_depth.bit_length()
    levels = int(level.max()) + 1
    if levels >= rounds:
        return None
    # Segments grouped by level, then by length (equal-length runs of
    # one level form one reshaped block); each keeps index order.
    seg_order = np.lexsort((lengths, level))
    seg_len = lengths[seg_order]
    offsets = np.zeros(heads.size + 1, dtype=np.int64)
    np.cumsum(seg_len, out=offsets[1:])
    order = np.repeat(heads[seg_order] - offsets[:-1], seg_len) + idx
    level_ptr = np.searchsorted(
        level[seg_order], np.arange(levels + 1, dtype=np.int64)
    ).astype(np.int64)
    return ChainLayout(
        order=order, offsets=offsets, level_ptr=level_ptr, max_depth=max_depth
    )


@dataclass
class ChainLayout:
    """The chain strategy's plan: one permutation of the iterations and
    segment offsets into it, grouped by level.

    ``order[offsets[s]:offsets[s + 1]]`` is segment ``s``: iterations
    in index order, each reading its predecessor in the segment; the
    head reads ``pred[head]``, which lies in an earlier level (or is a
    terminal).  Segments ``level_ptr[l]:level_ptr[l + 1]`` form level
    ``l``.  The per-solve index helpers (block slices, seed positions,
    ``g`` in chain order) are derived lazily and cached, never
    serialized.
    """

    order: np.ndarray  # (n,) int64 permutation of the iterations
    offsets: np.ndarray  # (segments + 1,) int64, 0 .. n
    level_ptr: np.ndarray  # (levels + 1,) int64 segment index per level
    #: the deepest iteration's ancestor count (``None``: derive it)
    max_depth: Optional[int] = field(default=None, repr=False, compare=False)
    _cache: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    @property
    def levels(self) -> int:
        return int(self.level_ptr.shape[0]) - 1

    @property
    def segments(self) -> int:
        return int(self.offsets.shape[0]) - 1

    @property
    def cached_nbytes(self) -> int:
        """Bytes held by the lazily derived helpers."""

        def size(value) -> int:
            if isinstance(value, np.ndarray):
                return int(value.nbytes)
            if isinstance(value, (list, tuple)):
                return sum(size(item) for item in value)
            return 0

        return size(list(self._cache.values()))

    def depths(self, pred: np.ndarray) -> np.ndarray:
        """Each iteration's depth in the predecessor forest (its number
        of ancestors), level by level in chain order."""
        order, offsets = self.order, self.offsets
        pos = np.empty_like(order)
        pos[order] = np.arange(order.shape[0], dtype=np.int64)
        depth_c = np.zeros(order.shape[0], dtype=np.int64)
        lengths = np.diff(offsets)
        for level in range(self.levels):
            s0, s1 = int(self.level_ptr[level]), int(self.level_ptr[level + 1])
            lo, hi = int(offsets[s0]), int(offsets[s1])
            heads = order[offsets[s0:s1]]
            base = (
                np.zeros(s1 - s0, dtype=np.int64)
                if level == 0
                else depth_c[pos[pred[heads]]] + 1
            )
            lens = lengths[s0:s1]
            depth_c[lo:hi] = np.repeat(base - offsets[s0:s1], lens) + np.arange(
                lo, hi, dtype=np.int64
            )
        depth = np.empty_like(depth_c)
        depth[order] = depth_c
        return depth

    def to_payload(self) -> Dict[str, Any]:
        return {
            "order": self.order.tolist(),
            "offsets": self.offsets.tolist(),
            "level_ptr": self.level_ptr.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ChainLayout":
        return cls(
            order=np.asarray(payload["order"], dtype=np.int64),
            offsets=np.asarray(payload["offsets"], dtype=np.int64),
            level_ptr=np.asarray(payload["level_ptr"], dtype=np.int64),
        )


@dataclass
class OrdinaryPlan:
    """Plan of an OrdinaryIR solve over ``(g, f, m)``.

    The planner materializes one layout: ``chains`` (a
    :class:`ChainLayout`) when chain scans need fewer levels than
    pointer jumping needs rounds, else the round schedule ``steps``.
    ``steps`` is always readable -- on a chain plan it is built from
    ``pred`` on first access and cached, for the consumers that run
    rounds (python kernels, non-ufunc operators, round budgets,
    the checker's round rules).
    """

    fingerprint: str
    n: int
    m: int
    g: np.ndarray
    f: np.ndarray
    pred: np.ndarray
    steps: Optional[List[RoundStep]] = field(
        default=None, repr=False, compare=False
    )
    chains: Optional[ChainLayout] = field(default=None, repr=False, compare=False)
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
        """The layout the planner chose: ``"chains"`` or ``"rounds"``."""
        return "rounds" if self.chains is None else "chains"

    @property
    def has_steps(self) -> bool:
        """Whether the round schedule is materialized."""
        return self._steps is not None

    @property
    def rounds(self) -> int:
        """Pointer-jumping rounds (never builds a lazy schedule)."""
        return len(self.active_per_round)

    @property
    def trace_bound(self) -> int:
        """Value-independent bound ``L`` on the operands folded into
        any one result: the deepest iteration's ancestors, itself and
        its terminal's ``f`` operand.  A chain plan knows its depth; a
        rounds plan bounds it by ``2**rounds - 1``.  The overflow guard
        of the int64 add / multiply kernels reads it."""
        if self._trace_bound is None:
            if self.chains is None:
                depth = 2**self.rounds - 1
            elif self.chains.max_depth is not None:
                depth = self.chains.max_depth
            else:
                depth = int(self.chains.depths(self.pred).max())
            self._trace_bound = depth + 2
        return self._trace_bound

    @property
    def terminal_idx(self) -> np.ndarray:
        """Iterations whose ``f``-operand is an initial value."""
        if self._terminal_idx is None:
            self._terminal_idx = np.nonzero(self.pred < 0)[0]
        return self._terminal_idx

    @property
    def init_ops(self) -> int:
        return int(self.terminal_idx.size)

    @property
    def active_per_round(self) -> List[int]:
        """Active iterations per pointer-jumping round.  A chain plan
        whose schedule is not materialized derives them from depths:
        an iteration at depth ``d`` is active in round ``r`` iff
        ``d >= 2**(r-1)``."""
        if self._steps is not None or self.chains is None:
            return [int(active.size) for active, _src in self.steps]
        depth = self.chains.depths(self.pred)
        bits = np.frexp(depth.astype(np.float64))[1]  # int.bit_length
        per_bits = np.bincount(bits)
        return np.cumsum(per_bits[::-1])[::-1][1:].tolist()

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
            "pred": self.pred.tolist(),
        }
        if self.chains is not None:
            payload["chains"] = self.chains.to_payload()
        if self._steps is not None:  # a chain plan's only when materialized
            payload["steps"] = [
                [active.tolist(), src.tolist()] for active, src in self._steps
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OrdinaryPlan":
        steps = payload.get("steps")
        chains = payload.get("chains")
        return cls(
            fingerprint=payload["fingerprint"],
            n=int(payload["n"]),
            m=int(payload["m"]),
            g=np.asarray(payload["g"], dtype=np.int64),
            f=np.asarray(payload["f"], dtype=np.int64),
            pred=np.asarray(payload["pred"], dtype=np.int64),
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
        )


def _get_steps(plan: OrdinaryPlan) -> List[RoundStep]:
    if plan._steps is None:
        plan._steps = build_round_schedule(plan.pred)
    return plan._steps


def _set_steps(plan: OrdinaryPlan, steps: Optional[List[RoundStep]]) -> None:
    plan._steps = steps
    plan._steps_py = None


# ``steps`` is a constructor field backed by a lazy property: a chain
# plan builds its round schedule only when a rounds consumer reads it.
OrdinaryPlan.steps = property(_get_steps, _set_steps)  # type: ignore[assignment]


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
    path count fits -- a converged matrix CAP hands over its CSR ``L``
    as is, no per-row dicts -- and an object array of exact Python
    ints after an overflow promotion (path counts are
    Fibonacci-sized).  The vectorized evaluators read cached int64
    views: the entries that need powering (exponent > 1) and their
    period-reduced exponents.
    """

    row_ptr: np.ndarray  # (rows + 1,) int64
    cells: np.ndarray  # (nnz,) int64, sorted strictly increasing per row
    exponents: np.ndarray  # (nnz,) >= 1, int64 or object
    # lazily-built caches (not serialized, not compared)
    _dicts: Optional[List[Dict[int, int]]] = field(
        default=None, repr=False, compare=False
    )
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
        """Entries with exponent > 1 (the rest gather their initial
        value unpowered); cached."""
        if self._power_idx is None:
            self._power_idx = np.flatnonzero(self.exponents > 1)
        return self._power_idx

    @property
    def power_entry_count(self) -> int:
        """Entries with exponent > 1 -- the solve's ``power_ops``."""
        return int(self.power_index().shape[0])

    @property
    def reduction_depth(self) -> int:
        """Parallel depth of the combine stage: ``max_i ceil(log2(nnz_i))``."""
        lengths = np.diff(self.row_ptr)
        if lengths.size == 0:
            return 0
        top = int(lengths.max())
        return (top - 1).bit_length() if top > 1 else 0

    def powered(self, period: Optional[int]):
        """``(index, reduced exponents)`` of the entries that need
        powering, int64-reduced via ``period``; ``None`` when they do
        not reduce.  Cached per period, so a cached plan's solves pay
        only the powers themselves.
        """
        if period not in self._powered:
            idx = self.power_index()
            reduced = _reduce(self.exponents[idx], period)
            self._powered[period] = None if reduced is None else (idx, reduced)
        return self._powered[period]

    def row_items(self, i: int) -> List[Tuple[int, int]]:
        """Row ``i`` as sorted ``(cell, exponent)`` pairs."""
        lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        return list(
            zip(self.cells[lo:hi].tolist(), self.exponents[lo:hi].tolist())
        )

    def row_dicts(self) -> List[Dict[int, int]]:
        """The legacy per-row dict view (built once, cached)."""
        if self._dicts is None:
            ptr = self.row_ptr.tolist()
            cells = self.cells.tolist()
            exps = self.exponent_list()
            self._dicts = [
                dict(zip(cells[ptr[i] : ptr[i + 1]], exps[ptr[i] : ptr[i + 1]]))
                for i in range(self.rows)
            ]
        return self._dicts

    @classmethod
    def from_cap(cls, cap, n: int) -> "PowerTable":
        """The table of a converged :class:`~repro.core.cap.CAPResult`
        over ``n`` final nodes: its int64 CSR ``L`` as is when the
        matrix recurrence produced one, else its dict rows flattened."""
        if cap.leaf_csr is not None:
            row_ptr, cells, counts = cap.leaf_csr
            return cls(row_ptr=row_ptr, cells=cells, exponents=counts)
        return cls.from_node_rows(cap.powers, n)

    @classmethod
    def from_node_rows(cls, rows: List[Dict[int, int]], n: int) -> "PowerTable":
        """Build from CAP's converged edge sets (targets are leaf node
        ids ``n + cell``); one pass, rows come out cell-sorted."""
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
        )

    @classmethod
    def from_tables(cls, tables: List[Dict[int, int]]) -> "PowerTable":
        """Build from legacy cell-keyed per-row dicts (v1 payloads)."""
        return cls.from_node_rows(tables, 0)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "row_ptr": self.row_ptr.tolist(),
            "cells": self.cells.tolist(),
            # JSON carries arbitrary-precision ints natively
            "exponents": self.exponent_list(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PowerTable":
        return cls(
            row_ptr=np.asarray(payload["row_ptr"], dtype=np.int64),
            cells=np.asarray(payload["cells"], dtype=np.int64),
            exponents=exponent_array([int(x) for x in payload["exponents"]]),
        )


def _reduce(exps: np.ndarray, period: Optional[int]) -> Optional[np.ndarray]:
    """Exponents ``k >= 1`` as int64 ``((k - 1) % period) + 1`` -- still
    >= 1 (atomic powers need positive exponents) and congruent to ``k``
    modulo ``period``; with no period, the int64 view or ``None`` when
    any exponent overflows.  Reducing before the ``- 1`` keeps exact
    big-int exponents from being copied whole."""
    if period is None:
        return exps if exps.dtype == np.int64 else None
    residues = (exps % period).astype(np.int64, copy=False)
    return (residues - 1) % period + 1


@dataclass
class GIRPlan:
    """Plan of a GIR solve (schema v2: array-backed power table).

    Either ``dispatch`` is set (ordinary-shaped system: the nested
    :class:`OrdinaryPlan` runs instead of the CAP pipeline), or the
    CAP artifacts are: ``table`` -- the flat :class:`PowerTable` whose
    row ``i`` maps leaf cells (< original ``m``) to the power of their
    initial value in iteration ``i``'s trace -- ``out_cells[i]``, the
    cell iteration ``i`` writes in the (possibly renamed) working
    system, and ``final_cell_of``, projecting the renamed array back
    onto the original cells (``None`` when no renaming happened).

    ``tables`` (the v1 per-row dicts) remains available as a lazy
    read-only view for the checker's oracle and historical callers.
    """

    fingerprint: str
    n: int
    m: int
    renamed: bool = False
    dispatch: Optional[OrdinaryPlan] = None
    out_cells: Optional[np.ndarray] = None
    table: Optional[PowerTable] = None
    final_cell_of: Optional[np.ndarray] = None
    cap_iterations: int = 0
    cap_edge_work: int = 0
    family: str = "gir"

    @property
    def tables(self) -> Optional[List[Dict[int, int]]]:
        """Legacy v1 view: per-row ``{cell: power}`` dicts."""
        if self.table is None:
            return None
        return self.table.row_dicts()

    def to_dict(self) -> Dict[str, Any]:
        return {
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
            "table": None if self.table is None else self.table.to_payload(),
            "final_cell_of": None
            if self.final_cell_of is None
            else self.final_cell_of.tolist(),
            "cap_iterations": self.cap_iterations,
            "cap_edge_work": self.cap_edge_work,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GIRPlan":
        table: Optional[PowerTable] = None
        if payload.get("table") is not None:
            table = PowerTable.from_payload(payload["table"])
        elif payload.get("tables") is not None:
            # v1 payload: per-row [(cell, power), ...] pair lists
            table = PowerTable.from_tables(
                [{int(c): int(x) for c, x in t} for t in payload["tables"]]
            )
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
            table=table,
            final_cell_of=None
            if payload["final_cell_of"] is None
            else np.asarray(payload["final_cell_of"], dtype=np.int64),
            cap_iterations=int(payload["cap_iterations"]),
            cap_edge_work=int(payload["cap_edge_work"]),
        )


@dataclass
class MoebiusPlan:
    """Plan of a Moebius solve: the shared pointer-jumping structure
    over ``(g, f)``; every numeric path (object / affine / rational)
    replays it over its own matrix representation."""

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
        return cls(
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
