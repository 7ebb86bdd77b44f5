#!/usr/bin/env python
"""CI smoke: observability must be (nearly) free when off.

Three measurements on one n=100k ordinary float solve (numpy backend,
plan cache warm), using min-of-trials (the noise-robust estimator --
the minimum is the run with the least scheduler interference):

1. **silenced**  -- obs disabled *and* the flight recorder's record
   hook stubbed out: the pre-telemetry cost of the solve.
2. **disabled**  -- the default production path: no registry
   installed, flight recorder buffering its handful of events per
   solve.  Must be within ``DISABLED_BUDGET`` (1%) of silenced.
3. **enabled**   -- under ``obs.observed()``: spans + metrics on.
   Must be within ``ENABLED_BUDGET`` (5%) of disabled.

Overhead is the median of paired per-trial ratios (trials are
interleaved in shuffled order), and a breached budget is remeasured
up to ``MAX_ATTEMPTS`` times before failing -- a load burst inflates
one round, a real regression inflates all of them.

Exit 0 on success, 1 on any violated budget; ``repro obs``-level
functional coverage lives in the test suite -- this job only guards
the overhead envelope.
"""

import os
import random
import statistics
import sys
import time
from repro.engine import EngineOptions

N = int(os.environ.get("REPRO_SMOKE_N", "100000"))
TRIALS = int(os.environ.get("REPRO_SMOKE_TRIALS", "9"))
REPEATS = int(os.environ.get("REPRO_SMOKE_REPEATS", "3"))
MAX_ATTEMPTS = int(os.environ.get("REPRO_SMOKE_ATTEMPTS", "3"))
DISABLED_BUDGET = 0.01
ENABLED_BUDGET = 0.05


def build(n=N):
    import numpy as np

    from repro.core import FLOAT_ADD, OrdinaryIRSystem

    rng = np.random.default_rng(7)
    return OrdinaryIRSystem.build(
        rng.random(n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        FLOAT_ADD,
    )


def timed_interleaved(variants, trials=TRIALS, repeats=REPEATS):
    """Raw per-trial wall clocks, trials interleaved round-robin so
    transient machine load penalizes every variant equally instead of
    whichever group ran during the spike.

    Each variant is a callable taking ``repeats`` and returning the
    mean seconds per solve -- the variant owns its own timing so it
    can exclude one-time setup (installing a registry) from the
    steady-state cost.  The inner repeat averages out scheduler fat
    tails that a single run would eat whole.  Variant order is
    shuffled per trial (deterministically) so a sustained load burst
    cannot systematically land on whichever variant runs last."""
    samples = {name: [] for name in variants}
    order = list(variants)
    rng = random.Random(1337)
    for _ in range(trials):
        rng.shuffle(order)
        for name in order:
            samples[name].append(variants[name](repeats))
    return samples


def paired_overhead(baseline, candidate):
    """Median of per-trial overhead ratios.

    Each trial's baseline and candidate run back-to-back under the
    same transient load, so the per-trial ratio cancels drift that a
    ratio-of-aggregates (min/min or median/median) cannot -- the
    noise floor drops well below the 1% budget this script gates on.
    """
    return statistics.median(
        c / b - 1.0 for b, c in zip(baseline, candidate)
    )


def main() -> int:
    from repro import obs
    from repro.engine import solve
    from repro.obs import recorder

    system = build()
    for _ in range(3):  # warm plan cache, numpy, and the allocator
        solve(system, options=EngineOptions(backend="numpy"))

    failures = []

    def run_solves(repeats):
        started = time.perf_counter()
        for _ in range(repeats):
            solve(system, options=EngineOptions(backend="numpy"))
        return (time.perf_counter() - started) / repeats

    def silenced_sample(repeats):
        # stub the recorder hook: the only always-on v2 cost
        ring = recorder.get_recorder()
        real_record = ring.record
        ring.record = lambda *a, **k: None
        try:
            return run_solves(repeats)
        finally:
            ring.record = real_record

    def disabled_sample(repeats):
        return run_solves(repeats)  # the default production path

    def enabled_sample(repeats):
        # registry install is once-per-process in production, so the
        # context entry sits outside the timed region: this measures
        # the steady-state per-solve cost of spans + metrics
        with obs.observed():
            return run_solves(repeats)

    # Gate on the best of up to MAX_ATTEMPTS measurement rounds: a
    # load burst can only inflate a round's overhead, so the minimum
    # across rounds is the least-contaminated estimate, and a genuine
    # regression fails every round.
    best_disabled = best_enabled = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        samples = timed_interleaved({
            "silenced": silenced_sample,
            "disabled": disabled_sample,
            "enabled": enabled_sample,
        })
        disabled_overhead = paired_overhead(
            samples["silenced"], samples["disabled"]
        )
        enabled_overhead = paired_overhead(
            samples["disabled"], samples["enabled"]
        )
        print(f"attempt {attempt}/{MAX_ATTEMPTS}: n={N} trials={TRIALS} "
              f"repeats={REPEATS} "
              "(min / median wall clock; overhead = paired-trial median)")
        for name, overhead, budget in (
            ("silenced", None, None),
            ("disabled", disabled_overhead, DISABLED_BUDGET),
            ("enabled ", enabled_overhead, ENABLED_BUDGET),
        ):
            runs = samples[name.strip()]
            line = (f"  {name} : {min(runs) * 1e3:8.2f} / "
                    f"{statistics.median(runs) * 1e3:8.2f} ms")
            if overhead is not None:
                line += f"  (overhead {overhead:+.2%}, budget {budget:.0%})"
            print(line)
        if best_disabled is None or disabled_overhead < best_disabled:
            best_disabled = disabled_overhead
        if best_enabled is None or enabled_overhead < best_enabled:
            best_enabled = enabled_overhead
        if best_disabled <= DISABLED_BUDGET and best_enabled <= ENABLED_BUDGET:
            break
        print("  over budget -- remeasuring (noise or regression?)")

    if best_disabled > DISABLED_BUDGET:
        failures.append(
            f"disabled-path overhead {best_disabled:.2%} exceeds "
            f"{DISABLED_BUDGET:.0%} in all {MAX_ATTEMPTS} attempts"
        )
    if best_enabled > ENABLED_BUDGET:
        failures.append(
            f"enabled-path overhead {best_enabled:.2%} exceeds "
            f"{ENABLED_BUDGET:.0%} in all {MAX_ATTEMPTS} attempts"
        )

    if failures:
        print("\nFAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nobs overhead smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
