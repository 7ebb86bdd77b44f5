"""Core algorithms: the paper's contribution.

Public surface of :mod:`repro.core`:

* operator algebra (:mod:`~repro.core.operators`),
* IR system model (:mod:`~repro.core.equations`),
* sequential references (:mod:`~repro.core.sequential`),
* trace structures (:mod:`~repro.core.traces`),
* the OrdinaryIR pointer-jumping solver (:mod:`~repro.core.ordinary`),
* the GIR dependence-graph / CAP pipeline
  (:mod:`~repro.core.depgraph`, :mod:`~repro.core.cap`,
  :mod:`~repro.core.gir`),
* the Moebius reduction (:mod:`~repro.core.moebius`),
* scheduling arithmetic (:mod:`~repro.core.scheduling`).
"""

from .baselines import (
    BaselineStats,
    blelloch_scan,
    kogge_stone_scan,
    recursive_doubling_linear,
    sequential_scan,
    work_efficient_chain_solve,
)
from ..errors import CyclicDependenceError
from .cap import CAPResult, cap_iterations, count_all_paths, count_paths_dp
from .diagnostics import explain_gir, explain_ordinary
from .depgraph import DependenceGraph, build_dependence_graph
from .equations import (
    GIRSystem,
    IRClass,
    IRSystemBase,
    IRValidationError,
    NormalizedGIR,
    OrdinaryIRSystem,
    as_index_array,
    normalize_non_distinct,
)
from .gir import GIRSolveStats, evaluate_trace_powers, trace_powers
from .moebius import (
    AffineRecurrence,
    Mat2,
    RationalRecurrence,
    moebius_compose,
    moebius_ir_operator,
    run_moebius_sequential,
)
from .operators import (
    ADD,
    CONCAT,
    FLOAT_ADD,
    FLOAT_MUL,
    MAX,
    MIN,
    MUL,
    STOCK_OPERATORS,
    Operator,
    OperatorError,
    make_operator,
    modular_add,
    modular_mul,
)
from .ordinary import SolveStats
from .prefix import (
    exclusive_scan,
    lift_segmented,
    linear_recurrence,
    prefix_scan,
    segmented_scan,
)
from .scheduling import (
    WorkDepth,
    brent_schedule,
    efficiency,
    fork_bounded_schedule,
    processor_sweep,
    speedup,
)
from .sequential import run_gir, run_ordinary
from .serialize import (
    dump_system,
    load_system,
    operator_from_name,
    operator_to_name,
    system_from_dict,
    system_to_dict,
)
from .workloads import (
    chain_system,
    double_chain_gir_system,
    fibonacci_gir_system,
    forest_system,
    random_gir_system,
    random_ordinary_system,
    scatter_system,
)
from .traces import (
    all_ordinary_traces,
    chain_lengths,
    gir_trace_tree,
    leaf_counts,
    max_chain_length,
    ordinary_trace_factors,
    predecessor_array,
    render_factors,
    render_tree,
    tree_sizes,
)

__all__ = [
    # baselines
    "BaselineStats",
    "blelloch_scan",
    "kogge_stone_scan",
    "recursive_doubling_linear",
    "sequential_scan",
    "work_efficient_chain_solve",
    # errors (re-export)
    "CyclicDependenceError",
    # cap
    "CAPResult",
    "cap_iterations",
    "count_all_paths",
    "count_paths_dp",
    # diagnostics
    "explain_gir",
    "explain_ordinary",
    # depgraph
    "DependenceGraph",
    "build_dependence_graph",
    # equations
    "GIRSystem",
    "IRClass",
    "IRSystemBase",
    "IRValidationError",
    "NormalizedGIR",
    "OrdinaryIRSystem",
    "as_index_array",
    "normalize_non_distinct",
    # gir
    "GIRSolveStats",
    "evaluate_trace_powers",
    "trace_powers",
    # moebius
    "AffineRecurrence",
    "Mat2",
    "RationalRecurrence",
    "moebius_compose",
    "moebius_ir_operator",
    "run_moebius_sequential",
    # operators
    "ADD",
    "CONCAT",
    "FLOAT_ADD",
    "FLOAT_MUL",
    "MAX",
    "MIN",
    "MUL",
    "STOCK_OPERATORS",
    "Operator",
    "OperatorError",
    "make_operator",
    "modular_add",
    "modular_mul",
    # ordinary
    "SolveStats",
    # prefix
    "exclusive_scan",
    "lift_segmented",
    "linear_recurrence",
    "prefix_scan",
    "segmented_scan",
    # scheduling
    "WorkDepth",
    "brent_schedule",
    "efficiency",
    "fork_bounded_schedule",
    "processor_sweep",
    "speedup",
    # sequential
    "run_gir",
    "run_ordinary",
    # serialize
    "dump_system",
    "load_system",
    "operator_from_name",
    "operator_to_name",
    "system_from_dict",
    "system_to_dict",
    # workloads
    "chain_system",
    "double_chain_gir_system",
    "fibonacci_gir_system",
    "forest_system",
    "random_gir_system",
    "random_ordinary_system",
    "scatter_system",
    # traces
    "all_ordinary_traces",
    "chain_lengths",
    "gir_trace_tree",
    "leaf_counts",
    "max_chain_length",
    "ordinary_trace_factors",
    "predecessor_array",
    "render_factors",
    "render_tree",
    "tree_sizes",
]
