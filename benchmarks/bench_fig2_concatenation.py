"""Figure 2 -- one concatenation (pointer-jumping) step.

The paper's figure shows two sub-traces being concatenated in a single
parallel step: values multiply (``A[g(i)] := A[N[g(i)]] . A[g(i)]``)
and pointers jump (``N[g(i)] := N[N[g(i)]]``).  This bench replays the
algorithm round by round on a single chain and checks the doubling
invariant: after round r, every unfinished sub-trace covers exactly
2^r factors.
"""

from repro.analysis.reporting import ascii_table, banner
from repro.core import CONCAT, OrdinaryIRSystem, run_ordinary
from repro.engine import EngineOptions, solve
from repro.resilience import SolvePolicy

N = 16


def build():
    return OrdinaryIRSystem.build(
        [(f"s{j}",) for j in range(N + 1)],
        list(range(1, N + 1)),
        list(range(N)),
        CONCAT,
    )


def run_rounds():
    """Partial solves after r = 0, 1, 2, ... rounds."""
    system = build()
    full = solve(
        system,
        collect_stats=True,
        options=EngineOptions(backend="python"),
    ).stats
    frames = []
    for r in range(full.rounds + 1):
        res = solve(
            system,
            collect_stats=True,
            options=EngineOptions(
                backend="python",
                policy=SolvePolicy(max_rounds=r, on_exhaustion="partial"),
            ),
        )
        out, stats = res.values, res.stats
        frames.append((r, out, stats))
    return system, frames


def test_fig2_doubling_invariant(benchmark):
    system, frames = benchmark(run_rounds)
    final = run_ordinary(system)
    # after round r the last cell's sub-trace covers 2^r factors, until
    # the terminal (which carries an extra f-operand factor) is absorbed
    for r, out, _ in frames:
        covered = len(out[N])  # tuple length = factors so far
        expected = N + 1 if 2**r >= N else 2**r
        assert covered == expected, (r, covered)
    assert frames[-1][1] == final
    # log2(N) rounds to finish the length-N chain
    assert frames[-1][0] == 4


def main():
    system, frames = run_rounds()
    print(banner(f"Figure 2: concatenation rounds on a chain of {N}"))
    rows = []
    for r, out, _ in frames:
        rows.append((r, len(out[N]), "".join(w[1:] for w in out[N])[:48]))
    print(ascii_table(("round", "factors covered (last cell)", "sub-trace"), rows,
                      align_right=[0, 1]))
    print("\nEach round doubles the factors a sub-trace covers (2^r + 1)")
    print("until the chain terminal is absorbed: the Fig-2 mechanism.")


if __name__ == "__main__":
    main()
