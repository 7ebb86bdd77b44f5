"""Set-up probe for the ``cold`` workload.

Run in a fresh interpreter: ``python3 perfbench/coldstart.py SRC_DIR``.
Prints the seconds the process spends importing the engine and serving
its first tiny solve of each request family (the lazy imports and
registries every cold process pays once).  Interpreter start-up is not
included.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from repro.core import FLOAT_ADD
    from repro.core.moebius import AffineRecurrence
    from repro.core.workloads import random_gir_system, random_ordinary_system
    from repro.engine import solve

    solve(random_ordinary_system(64, seed=0, op=FLOAT_ADD))
    solve(AffineRecurrence.build([0.5] * 65, range(1, 65), range(64),
                                 [0.5] * 64, [0.25] * 64))
    solve(random_gir_system(64, extra_cells=64, seed=0))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
