"""Figure 5 -- the expansion of ``X_i = X_{i-1} * X_{i-2}``.

The paper expands the recurrence for small n and observes that the
trace is ``A[0]^fib(i-1) * A[1]^fib(i)``.  This bench reproduces the
expansion, renders the n=3 tree the way the figure draws it, verifies
the Fibonacci powers through CAP, and solves the recurrence with the
full GIR pipeline against the sequential loop.
"""

from repro.analysis.reporting import banner, series_table
from repro.core import GIRSystem, modular_mul, run_gir
from repro.core.cap import count_all_paths
from repro.core.depgraph import build_dependence_graph
from repro.core.traces import gir_trace_tree, render_tree
from repro.engine import solve

N = 40
MOD = 10**9 + 7


def build(n=N):
    op = modular_mul(MOD)
    return GIRSystem.build(
        [2, 3] + [1] * n,
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        [i for i in range(n)],
        op,
    )


def run_fig5(n=N):
    system = build(n)
    graph = build_dependence_graph(system)
    cap = count_all_paths(graph)
    powers = [cap.powers_by_cell(graph, i) for i in range(n)]
    # a graph this shallow (depth 40) plans dependence levels: the
    # solve sweeps them and runs no CAP, so CAP's numbers are its own
    parallel = solve(system).values
    sequential = run_gir(system)
    return system, powers, parallel, sequential, cap


def test_fig5_fibonacci_powers(benchmark):
    system, powers, parallel, sequential, cap = benchmark(run_fig5)
    fib = [1, 1]
    for _ in range(N + 2):
        fib.append(fib[-1] + fib[-2])
    # the paper's claim: trace of X_i is A[0]^fib(i-1) * A[1]^fib(i)
    for i in range(N):
        assert powers[i] == {0: fib[i], 1: fib[i + 1]}
    assert parallel == sequential
    # CAP converges logarithmically even though powers are exponential
    assert cap.iterations <= 6
    benchmark.extra_info["largest_power"] = powers[-1][1]


def main():
    system, powers, parallel, _seq, cap = run_fig5()
    print(banner("Figure 5: expansion of X_i = X_{i-1} * X_{i-2}"))
    small = build(3)
    print("expanded tree for n = 3 (paper's drawing):")
    print(" ", render_tree(gir_trace_tree(small, 2)))
    print()
    rows = [4, 8, 16, 32, N - 1]
    print(series_table("i", rows, {
        "power of A[0]": [powers[i][0] for i in rows],
        "power of A[1]": [powers[i][1] for i in rows],
    }))
    print()
    print(f"GIR pipeline == sequential loop; CAP took "
          f"{cap.iterations} iterations for n = {N}")
    print(f"final value (mod {MOD}): {parallel[-1]}")


if __name__ == "__main__":
    main()
