"""Figure 1 -- the Ordinary IR trace example.

The paper's figure shows, for a small loop, the closed-form trace of
every array cell after execution: some cells preserve their initial
value (never assigned), others are products of several initial values
(Lemma 1).  The conference scan's exact instance is OCR-damaged, so we
regenerate both the loop *as printed* (``A[i] := A[i+4]*A[i]``, all
traces length 2 because f always points forward) and a chained variant
(``A[i+4] := A[i]*A[i+4]``) exhibiting the multi-factor traces the
figure discusses.
"""

from repro.analysis.reporting import ascii_table, banner
from repro.core import CONCAT, OrdinaryIRSystem, run_ordinary
from repro.engine import EngineOptions, solve
from repro.core.traces import all_ordinary_traces, render_factors

M = 12
N = 8


def literal_loop():
    """``for i = 1..8: A[i] := A[i+4] * A[i]`` (1-based), m = 12."""
    return OrdinaryIRSystem.build(
        [(j + 1,) for j in range(M)], list(range(N)), [i + 4 for i in range(N)], CONCAT
    )


def chained_loop():
    """``for i = 1..8: A[i+4] := A[i] * A[i+4]``: genuine chains."""
    return OrdinaryIRSystem.build(
        [(j + 1,) for j in range(M)], [i + 4 for i in range(N)], list(range(N)), CONCAT
    )


def run_fig1():
    out = {}
    for name, system in (("literal", literal_loop()), ("chained", chained_loop())):
        traces = all_ordinary_traces(system)
        res = solve(
            system,
            collect_stats=True,
            options=EngineOptions(backend="python"),
        )
        parallel, stats = res.values, res.stats
        assert parallel == run_ordinary(system)
        out[name] = (system, traces, stats)
    return out


def test_fig1_traces(benchmark):
    out = benchmark(run_fig1)
    _, literal_traces, _ = out["literal"]
    # as printed: every trace has exactly two factors, cells 9..12
    # (1-based) preserve their initial values
    assert all(len(t) == 2 for t in literal_traces.values())
    assert set(literal_traces) == set(range(N))
    # chained variant: traces grow along the chain, max 3 factors at m=12
    _, chained_traces, stats = out["chained"]
    assert max(len(t) for t in chained_traces.values()) == 3
    assert stats.rounds == 1  # chains of length 2 need one concatenation


def main():
    out = run_fig1()
    for name, title in (("literal", "for i=1..8: A[i] := A[i+4]*A[i]"),
                        ("chained", "for i=1..8: A[i+4] := A[i]*A[i+4]")):
        system, traces, stats = out[name]
        print(banner(f"Figure 1 ({name} loop): {title}   [1-based rendering]"))
        rows = []
        for cell in range(M):
            if cell in traces:
                rows.append((f"A'[{cell + 1}]", render_factors(traces[cell], one_based=True)))
            else:
                rows.append((f"A'[{cell + 1}]", f"A[{cell + 1}]  (initial value preserved)"))
        print(ascii_table(("cell", "trace"), rows))
        print(f"parallel solve: {stats.rounds} concatenation round(s)\n")


if __name__ == "__main__":
    main()
