"""Cost-accounted vectorized engine for large-``n`` runs.

The interpreter in :mod:`repro.pram.machine` is honest but slow (it
simulates every instruction in Python).  The Fig-3 benchmark runs at
``n = 50,000`` over a processor sweep, which calls for this engine:

* the *data path* is the real vectorized solver (the numpy backend,
  whichever strategy its planner picks) -- values are genuinely
  computed, not modeled;
* the *instruction accounting* is analytic: the plan's Lemma-1
  per-round active counts (:attr:`~repro.engine.plan.OrdinaryPlan.
  active_per_round`, the paper's pointer-jumping rounds) are pushed
  through exactly the burst formulas the interpreter charges (uniform
  per-step costs x ``ceil(active/P)`` bursts + per-burst fork
  overhead).

The test suite runs both layers on identical small systems and asserts
equal instruction totals for every ``P``, which is what licenses using
this engine at paper scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.equations import GIRSystem, OrdinaryIRSystem
from ..engine import EngineOptions
from ..engine import solve as engine_solve
from .instructions import DEFAULT_COST_MODEL, CostModel

__all__ = [
    "OrdinaryCostProfile",
    "profile_ordinary",
    "sequential_time",
    "GIRCostProfile",
    "profile_gir",
]


def sequential_time(
    n: int, op_cost: int = 1, *, cost_model: Optional[CostModel] = None
) -> int:
    """Instruction time of the sequential baseline loop (flat in P)."""
    cm = cost_model or DEFAULT_COST_MODEL
    return n * cm.ordinary_seq_iter(op_cost)


@dataclass
class OrdinaryCostProfile:
    """Cost profile of one parallel OrdinaryIR solve.

    Produced by :func:`profile_ordinary`; exposes the Fig-3 quantities
    for any physical processor count ``P``.
    """

    n: int
    op_cost: int
    rounds: int
    active_per_round: List[int]
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    # -- interpreter-equivalent formulas -----------------------------------

    def parallel_time(self, processors: int) -> int:
        """Scheduled instruction time of the parallel algorithm on
        ``P`` processors: writer step + links step + concat rounds,
        each as ``ceil(active / P)`` bursts of (uniform step cost +
        fork overhead).  Matches the interpreter exactly."""
        if processors < 1:
            raise ValueError("processors must be >= 1")
        cm = self.cost_model
        fork = cm.superstep_overhead()

        def step_time(active: int, unit: int) -> int:
            bursts = math.ceil(active / processors)
            return bursts * (unit + fork)

        total = step_time(self.n, cm.ordinary_init_writer())
        total += step_time(self.n, cm.ordinary_init_links(self.op_cost))
        for a in self.active_per_round:
            total += step_time(a, cm.ordinary_concat(self.op_cost))
        return total

    def parallel_work(self) -> int:
        """Total instructions across all virtual processors."""
        cm = self.cost_model
        total = self.n * cm.ordinary_init_writer()
        total += self.n * cm.ordinary_init_links(self.op_cost)
        total += sum(self.active_per_round) * cm.ordinary_concat(self.op_cost)
        return total

    def sequential_time(self) -> int:
        """The baseline loop's time (independent of P)."""
        return sequential_time(self.n, self.op_cost, cost_model=self.cost_model)

    def speedup(self, processors: int) -> float:
        return self.sequential_time() / self.parallel_time(processors)

    def crossover_processors(self, *, limit: Optional[int] = None) -> Optional[int]:
        """Smallest ``P`` at which the parallel algorithm beats the
        sequential loop, or ``None`` if it never does below ``limit``
        (default ``n``).  The paper's Fig 3 shows this crossover at a
        small multiple of ``log n``."""
        limit = limit if limit is not None else max(self.n, 1)
        seq = self.sequential_time()
        p = 1
        while p <= limit:
            if self.parallel_time(p) < seq:
                return p
            p *= 2
        return None

    def sweep(self, processor_grid: Sequence[int]) -> List[Dict[str, float]]:
        """Fig-3 series: one row per processor count."""
        seq = self.sequential_time()
        rows = []
        for p in processor_grid:
            t = self.parallel_time(p)
            rows.append(
                {
                    "processors": p,
                    "parallel_time": t,
                    "sequential_time": seq,
                    "speedup": seq / t,
                }
            )
        return rows


def profile_ordinary(
    system: OrdinaryIRSystem,
    *,
    cost_model: Optional[CostModel] = None,
) -> Tuple[List[Any], OrdinaryCostProfile]:
    """Solve an OrdinaryIR system with the vectorized engine and
    return ``(final_array, cost_profile)``.

    The solve is performed once; the profile then answers time
    questions for any processor count without re-running (scheduling
    is pure arithmetic over the recorded active counts).
    """
    solved = engine_solve(system, options=EngineOptions(backend="numpy"))
    active = solved.plan.active_per_round  # the paper's rounds
    profile = OrdinaryCostProfile(
        n=system.n,
        op_cost=system.op.cost,
        rounds=len(active),
        active_per_round=list(active),
        cost_model=cost_model or DEFAULT_COST_MODEL,
    )
    result = solved.values
    return result, profile


@dataclass
class GIRCostProfile:
    """Cost profile of one GIR solve (paper section 4).

    The GIR pipeline has three stages, all accounted here:

    1. dependence-graph construction -- one superstep, ``n`` virtual
       processors;
    2. CAP path doubling -- one superstep per iteration; the active
       count of iteration ``t`` is its edge-composition count (the
       paper allots up to ``O(n^2)`` processors, which is exactly the
       worst-case per-iteration edge work);
    3. trace evaluation -- atomic powers (one virtual processor per
       (trace, factor) pair) followed by the log-depth combine tree.
    """

    n: int
    op_cost: int
    cap_work_per_iteration: List[int]
    power_ops: int
    combine_ops: int
    reduction_depth: int
    combine_work_per_level: List[int] = field(default_factory=list)
    power_stage_ops: int = 0
    """Virtual processors in the power stage: one per (trace, factor)
    pair, uniformly padded (exponent-1 factors still load and store),
    matching the interpreter program.  Falls back to ``power_ops``
    when zero."""
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    def max_useful_processors(self) -> int:
        """Beyond this processor count no stage has enough virtual
        processors to keep everyone busy."""
        peak = max(
            [self.n, self.power_ops, self.combine_ops]
            + list(self.cap_work_per_iteration or [0])
        )
        return max(peak, 1)

    def parallel_time(self, processors: int) -> int:
        """Brent-scheduled instruction time of the full pipeline."""
        if processors < 1:
            raise ValueError("processors must be >= 1")
        cm = self.cost_model
        fork = cm.superstep_overhead()

        def step(active: int, unit: int) -> int:
            if active <= 0:
                return 0
            return math.ceil(active / processors) * (unit + fork)

        total = step(self.n, cm.gir_graph_build())
        for work in self.cap_work_per_iteration:
            total += step(work, cm.gir_cap_compose())
        total += step(
            self.power_stage_ops or self.power_ops, cm.gir_power(self.op_cost)
        )
        if self.combine_work_per_level:
            # exact per-level accounting (matches the interpreter in
            # repro.pram.ir_programs.run_trace_eval_on_pram)
            for active in self.combine_work_per_level:
                total += step(active, cm.gir_combine(self.op_cost))
        else:
            # fallback: one Brent block plus per-level sync
            total += step(self.combine_ops, cm.gir_combine(self.op_cost))
            total += self.reduction_depth * fork
        return total

    def sequential_time(self) -> int:
        """The original GIR loop: one op + five memory accesses plus
        loop control per iteration."""
        cm = self.cost_model
        per_iter = 5 * cm.load + self.op_cost + cm.store + cm.alu + cm.branch
        return self.n * per_iter

    def speedup(self, processors: int) -> float:
        return self.sequential_time() / self.parallel_time(processors)


def profile_gir(
    system: GIRSystem,
    *,
    cost_model: Optional[CostModel] = None,
) -> Tuple[List[Any], GIRCostProfile]:
    """Solve a GIR system and return ``(final_array, cost_profile)``.

    Note the honest caveat the profile encodes: unlike OrdinaryIR,
    GIR's CAP stage can perform far more *work* than the sequential
    loop (path counting touches every (node, leaf) pair), so the
    speedup only materializes at large processor counts -- the paper's
    ``O(n^2)``-processor regime.
    """
    from ..core.cap import DP_DEPTH_CUTOFF, count_all_paths
    from ..core.depgraph import build_dependence_graph
    from ..core.equations import normalize_non_distinct

    # force the CAP pipeline: the profile describes GIR's own stages,
    # not the ordinary-dispatch fast path
    solved = engine_solve(
        system,
        collect_stats=True,
        allow_ordinary_dispatch=False,
        options=EngineOptions(backend="numpy"),
    )
    result, stats = solved.values, solved.stats
    assert stats is not None
    solved_system = (
        system if system.g_is_distinct() else normalize_non_distinct(system).system
    )
    graph = build_dependence_graph(solved_system)
    # The profile prices CAP's doubling rounds: ask for them even where
    # the planner would finish an overflowing run on the DP.
    deep = graph.depth() > DP_DEPTH_CUTOFF
    cap = count_all_paths(graph, method="dp" if deep else "matrix")

    # per-level combine actives: every trace's factor count halves per
    # level (floor-pairing, mirroring evaluate_trace_powers and the
    # PRAM program in run_trace_eval_on_pram)
    sizes = [len(cap.powers[i]) for i in range(graph.n)]
    combine_levels: List[int] = []
    while any(k > 1 for k in sizes):
        combine_levels.append(sum(k // 2 for k in sizes))
        sizes = [(k + 1) // 2 for k in sizes]

    profile = GIRCostProfile(
        n=stats.n,
        op_cost=system.op.cost,
        cap_work_per_iteration=list(cap.work_per_iteration),
        power_ops=stats.power_ops,
        combine_ops=stats.combine_ops,
        reduction_depth=stats.reduction_depth,
        combine_work_per_level=combine_levels,
        power_stage_ops=sum(len(cap.powers[i]) for i in range(graph.n)),
        cost_model=cost_model or DEFAULT_COST_MODEL,
    )
    return result, profile
