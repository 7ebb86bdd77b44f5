"""Ablation -- pointer jumping vs. a work-efficient chain scan.

The paper's OrdinaryIR algorithm performs Theta(n log n) operator work
(every active trace works every round).  On inputs whose trace forest
has no branching -- disjoint chains, which include scans and the Fig-3
workload itself -- the same values are inclusive prefixes, solvable
work-efficiently (Blelloch) with ~3n operations at twice the depth.

This ablation quantifies the classic trade-off on the paper's own
workload shape, and shows where pointer jumping earns its keep: the
chain scan simply *does not apply* once traces share predecessors
(arbitrary ``f``), which is exactly the generality the paper is about.
"""

import math

from repro.analysis.reporting import banner, series_table
from repro.core import CONCAT, OrdinaryIRSystem, run_ordinary
from repro.core.baselines import work_efficient_chain_solve
from repro.engine import EngineOptions, solve

NS = [256, 1024, 4096, 16384]


def chain(n):
    return OrdinaryIRSystem.build(
        [(j,) for j in range(n + 1)],
        list(range(1, n + 1)),
        list(range(n)),
        CONCAT,
    )


def run_ablation():
    rows = {"n": NS, "pj_work": [], "pj_depth": [], "scan_work": [],
            "scan_depth": []}
    for n in NS:
        system = chain(n)
        res = solve(
            system,
            collect_stats=True,
            options=EngineOptions(backend="numpy"),
        )
        out_pj, s_pj = res.values, res.stats
        out_we, s_we = work_efficient_chain_solve(system)
        assert out_pj == out_we == run_ordinary(system)
        rows["pj_work"].append(s_pj.total_ops)
        rows["pj_depth"].append(s_pj.depth)
        rows["scan_work"].append(s_we.ops)
        rows["scan_depth"].append(s_we.depth)
    return rows


def test_ablation_work_efficiency(benchmark):
    # the sweep takes ~1.5 s; one measured round keeps the suite fast
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    for i, n in enumerate(NS):
        log_n = math.ceil(math.log2(n))
        # pointer jumping: Theta(n log n) work (exactly
        # n*log n - (n - 1) + 1 op-applications on a single chain),
        # log n + 1 depth
        assert rows["pj_work"][i] == n * log_n - n + 2
        assert rows["pj_depth"][i] == log_n + 1
        # chain scan: <= ~3n work, ~2 log n depth
        assert rows["scan_work"][i] <= 3.1 * n
        assert rows["scan_depth"][i] <= 2 * log_n + 3
    # the separation grows like log n
    ratio_small = rows["pj_work"][0] / rows["scan_work"][0]
    ratio_big = rows["pj_work"][-1] / rows["scan_work"][-1]
    assert ratio_big > ratio_small

    # the scan does NOT generalize: branching inputs are rejected
    import pytest

    branching = OrdinaryIRSystem.build(
        [(c,) for c in "abcd"], [1, 2, 3], [0, 1, 1], CONCAT
    )
    with pytest.raises(ValueError, match="branching"):
        work_efficient_chain_solve(branching)
    # ... while pointer jumping handles them (the paper's point)
    assert (
        solve(branching, options=EngineOptions(backend="numpy")).values
        == run_ordinary(branching)
    )


def main():
    rows = run_ablation()
    print(banner("Ablation: pointer jumping vs work-efficient chain scan "
                 "(disjoint-chain inputs)"))
    print(series_table("n", rows["n"], {
        "pointer_jumping work": rows["pj_work"],
        "chain_scan work": rows["scan_work"],
        "pj depth": rows["pj_depth"],
        "scan depth": rows["scan_depth"],
        "work ratio": [round(a / b, 2) for a, b in zip(rows["pj_work"], rows["scan_work"])],
    }))
    print()
    print("On chains, Blelloch-style scanning does ~log(n)/3 times less")
    print("work at ~2x the depth.  But it requires an unbranched trace")
    print("forest and an operator identity; pointer jumping needs neither")
    print("-- the generality the paper trades that work factor for.")


if __name__ == "__main__":
    main()
