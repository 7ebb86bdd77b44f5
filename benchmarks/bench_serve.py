"""Serving-layer load benchmark: the request-coalescing payoff gate.

Not a paper artifact -- the perf contract of ``repro.serve``: a
closed-loop fleet of concurrent clients hammering ONE shared affine
problem (the multi-tenant hot-problem shape) must get at least
``--min-speedup`` more requests/sec through the coalescing gather
window than through naive one-solve-per-request service, while every
response stays bit-exact against the sequential oracle and the
coalesced arm's p99 stays inside the registered ``SolvePolicy``
deadline.  ``main()`` returns nonzero when any contract is violated,
so ``regenerate_all.py`` (and the CI ``serve-load-smoke`` job) fail on
a serving regression.

Arms
----
* ``naive``     -- ``window_ms=0, max_batch=1``: every request is its
  own engine solve, serialized per session (what per-request service
  costs);
* ``coalesced`` -- a gather window dedups the hot working set
  (``--hot-set`` distinct payloads) and stacks the distinct rows into
  one ``(k, n)`` batched sweep.

Clients send sparse ``patch`` payloads and ask for ``digest`` replies,
so the wire cost stays small and the gate measures the engine path.
"""

import argparse
import asyncio
import concurrent.futures
import contextlib
import threading
import time

from repro.core.moebius import AffineRecurrence
from repro.engine import EngineOptions
from repro.serve import RecurrenceServer, ServeClient, ServeConfig
from repro.serve.server import _digest

N = 16_384
CLIENTS = 64
PER_CLIENT = 4
HOT_SET = 8
WINDOW_MS = 5.0
DEADLINE_S = 5.0
MIN_SPEEDUP = 5.0


def build(n=N):
    return AffineRecurrence.build(
        [1.0] * (n + 1),
        g=list(range(1, n + 1)),
        f=list(range(0, n)),
        a=[1.0] * n,
        b=[1.0] * n,
    )


def oracle_digests(rec, hot_set):
    """Expected reply digest per hot payload, from the sequential
    definition of the recurrence (pure Python, no engine)."""
    expected = {}
    for j in range(hot_set):
        out = list(rec.initial)
        out[0] = float(j)
        for i in range(rec.n):
            out[int(rec.g[i])] = rec.a[i] * out[int(rec.f[i])] + rec.b[i]
        expected[j] = _digest(out)
    return expected


@contextlib.contextmanager
def serving(config, system, options):
    """Run a RecurrenceServer on a daemon-thread event loop."""
    server = RecurrenceServer(config)
    problem = server.register(system, options=options)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=_loop_main, args=(loop,), daemon=True)
    thread.start()
    host, port = asyncio.run_coroutine_threadsafe(
        server.start(), loop
    ).result(timeout=10)
    try:
        yield host, port, problem.fingerprint
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
            timeout=10
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


def _loop_main(loop):
    asyncio.set_event_loop(loop)
    loop.run_forever()


def _drive(host, port, fingerprint, *, clients, per_client, hot_set):
    """Closed-loop load: each client thread owns one keep-alive
    connection and walks the hot payload set.  Returns per-request
    ``(payload_j, digest, coalesced, latency_s)`` tuples and the
    wall-clock of the whole fleet."""
    barrier = threading.Barrier(clients)

    def one_client(cid):
        rows = []
        with ServeClient(host, port) as client:
            barrier.wait()
            for r in range(per_client):
                j = (cid + r) % hot_set
                t0 = time.perf_counter()
                doc = client.solve(
                    fingerprint,
                    patch={0: float(j)},
                    tenant=f"t{cid % 8}",
                    request_id=f"c{cid}r{r}",
                    reply="digest",
                )
                rows.append(
                    (
                        j,
                        doc["digest"],
                        doc["coalesced"],
                        time.perf_counter() - t0,
                    )
                )
        return rows

    started = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(clients) as pool:
        per_thread = list(pool.map(one_client, range(clients)))
    elapsed = time.perf_counter() - started
    return [row for rows in per_thread for row in rows], elapsed


def _quantile(sorted_xs, q):
    if not sorted_xs:
        return 0.0
    idx = min(len(sorted_xs) - 1, int(q * (len(sorted_xs) - 1) + 0.5))
    return sorted_xs[idx]


def run_arm(system, *, coalesce, clients, per_client, hot_set, window_ms,
            deadline_s):
    config = ServeConfig(
        port=0,
        window_ms=window_ms if coalesce else 0.0,
        max_batch=256 if coalesce else 1,
        tenant_quota=max(clients, 64),
        max_pending=4 * clients * per_client,
    )
    options = EngineOptions(
        backend="numpy",
        policy={"timeout_s": deadline_s} if coalesce else None,
    )
    with serving(config, system, options) as (host, port, fingerprint):
        # One warm-up solve keeps plan construction off the clock.
        with ServeClient(host, port) as warm:
            warm.solve(fingerprint, reply="digest")
        rows, elapsed = _drive(
            host,
            port,
            fingerprint,
            clients=clients,
            per_client=per_client,
            hot_set=hot_set,
        )
    latencies = sorted(r[3] for r in rows)
    return {
        "rows": rows,
        "elapsed_s": elapsed,
        "rps": len(rows) / elapsed if elapsed > 0 else float("inf"),
        "p50_s": _quantile(latencies, 0.50),
        "p99_s": _quantile(latencies, 0.99),
        "coalesced_frac": (
            sum(1 for r in rows if r[2]) / len(rows) if rows else 0.0
        ),
    }


def run(*, n=N, clients=CLIENTS, per_client=PER_CLIENT, hot_set=HOT_SET,
        window_ms=WINDOW_MS, deadline_s=DEADLINE_S,
        min_speedup=MIN_SPEEDUP, check=True):
    system = build(n)
    expected = oracle_digests(system, hot_set) if check else {}

    naive = run_arm(
        system,
        coalesce=False,
        clients=clients,
        per_client=per_client,
        hot_set=hot_set,
        window_ms=window_ms,
        deadline_s=deadline_s,
    )
    coalesced = run_arm(
        system,
        coalesce=True,
        clients=clients,
        per_client=per_client,
        hot_set=hot_set,
        window_ms=window_ms,
        deadline_s=deadline_s,
    )

    speedup = (
        coalesced["rps"] / naive["rps"] if naive["rps"] > 0 else float("inf")
    )
    total = clients * per_client
    print(
        f"n={n:,}  clients={clients}  requests={total}  "
        f"hot_set={hot_set}  window={window_ms:.1f}ms"
    )
    for label, arm in (("naive 1/req", naive), ("coalesced", coalesced)):
        print(
            f"  {label:<18}: {arm['rps']:8.1f} req/s   "
            f"p50={arm['p50_s'] * 1000:7.1f}ms  "
            f"p99={arm['p99_s'] * 1000:7.1f}ms  "
            f"coalesced={arm['coalesced_frac'] * 100:5.1f}%"
        )
    print(
        f"  speedup           : {speedup:8.2f}x  "
        f"(gate: >= {min_speedup:.1f})"
    )

    ok = True
    if speedup < min_speedup:
        print(
            f"GATE FAILED: coalesced serving delivered {speedup:.2f}x, "
            f"below the {min_speedup:.1f}x floor"
        )
        ok = False
    if coalesced["coalesced_frac"] <= 0.0:
        print("GATE FAILED: no request in the coalesced arm shared a window")
        ok = False
    if coalesced["p99_s"] > deadline_s:
        print(
            f"GATE FAILED: coalesced p99 {coalesced['p99_s']:.3f}s "
            f"exceeds the {deadline_s:.1f}s SolvePolicy deadline"
        )
        ok = False

    if check:
        mismatches = sum(
            1
            for arm in (naive, coalesced)
            for j, digest, _, _ in arm["rows"]
            if digest != expected[j]
        )
        print(
            "  oracle parity     : "
            + ("exact" if mismatches == 0 else f"{mismatches} MISMATCHES")
        )
        ok = ok and mismatches == 0

    return ok, speedup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--per-client", type=int, default=PER_CLIENT)
    parser.add_argument("--hot-set", type=int, default=HOT_SET)
    parser.add_argument("--window-ms", type=float, default=WINDOW_MS)
    parser.add_argument("--deadline", type=float, default=DEADLINE_S)
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP)
    parser.add_argument(
        "--check",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="verify every reply digest against the sequential oracle",
    )
    args, _unknown = parser.parse_known_args()
    ok, _ = run(
        n=args.n,
        clients=args.clients,
        per_client=args.per_client,
        hot_set=args.hot_set,
        window_ms=args.window_ms,
        deadline_s=args.deadline,
        min_speedup=args.min_speedup,
        check=args.check,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
