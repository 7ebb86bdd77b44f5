"""The serve phase of ``cold``'s traced run: the HTTP front end under
an open loop.

``python -m repro serve`` runs as a subprocess with the default
``ServeConfig`` (on a free port) and serves one affine chain
(n = 4096, a = b = 1).  One process sends seeded Poisson arrivals at
10 req/s over 2 keep-alive connections: three in four requests patch
cell 0 from a hot set of 8 and ask for a ``digest`` reply, one in four
sends the full value vector and asks for ``values``.  Each request is
timed from its due time.  It is not a declared workload of its own
(its latencies did not repeat within any allowed bound; see NOTES.md).
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import itertools
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.moebius import AffineRecurrence, run_moebius_sequential
from repro.core.serialize import system_to_dict
from repro.serve import ServeClient, ServeRejected

from common import (
    ROOT,
    SRC,
    Corruptor,
    Request,
    Spans,
    close_match,
    median,
    quantile,
    timed,
)

SIZES = {"full": 4096, "tiny": 256}
RATE = 10.0
CONNECTIONS = 2
HOT_SET = 8
VALUE_SHARE = 0.25
#: A run whose 90th-percentile send lag exceeds this fell behind its
#: schedule; it is flagged in the run notes.
LAG_LIMIT_S = 0.05
#: Sequential-loop timings per distinct request, of which the median
#: is used.
LOOP_REPEATS = 3
REJECT_REASONS = ("quota", "backpressure", "deadline", "timeout")


def server_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))[-1:]


def pin_load_generator() -> None:
    """Keep the calling thread off the server's CPU (when there are
    two or more), so client and server do not contend."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, cpus[:-1])


def build(n: int) -> AffineRecurrence:
    return AffineRecurrence.build(
        [1.0] * (n + 1), range(1, n + 1), range(n), [1.0] * n, [1.0] * n
    )


def digest(values) -> str:
    """The wire contract's reply digest: BLAKE2b-128 over the float64
    bytes of the result vector."""
    payload = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class Server:
    """``python -m repro serve`` as a subprocess on a free port."""

    def __init__(self, timeout_s: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        cpus = os.sched_getaffinity(0)
        if len(cpus) >= 2:
            # The child inherits this thread's affinity: the server gets
            # the last CPU; the load generator pins itself to the others.
            os.sched_setaffinity(0, server_cpus())
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-B", "-m", "repro", "serve", "--port", "0"],
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        finally:
            os.sched_setaffinity(0, cpus)
        self.output: List[str] = []
        self._ready = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout_s) or self.address is None:
            self.stop()
            raise RuntimeError("server did not start: " + "".join(self.output[-5:]))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            found = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if found:
                self.address = (found.group(1), int(found.group(2)))
                self._ready.set()
        self._ready.set()

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int:
        """SIGINT, then wait; a server that ignores it is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        return self.proc.returncode


def start(system) -> Tuple[Server, str]:
    """The program's set-up: server start, registration and warm-up."""
    server = Server()
    try:
        with ServeClient(*server.address) as client:
            fingerprint = client.register(system_to_dict(system))["fingerprint"]
            client.solve(fingerprint, reply="digest")
    except BaseException:
        server.stop()
        raise
    return server, fingerprint


@dataclasses.dataclass
class Item:
    index: int
    due: float
    kind: str
    hot: int = 0
    values: Optional[List[float]] = None
    want: object = None
    loop_s: float = 0.0


def loop(system) -> Tuple[List[float], float]:
    """The sequential loop's result and its median seconds."""
    runs = [timed(run_moebius_sequential, system) for _ in range(LOOP_REPEATS)]
    return runs[0][0], median([seconds for _, seconds in runs])


def planned_requests(seconds: float) -> int:
    return max(1, int(round(RATE * seconds)))


def schedule(seed: int, system, duration: float) -> List[Item]:
    """Seeded Poisson arrivals at ``RATE`` over ``duration`` seconds
    (a fixed count, uniformly placed), with the oracle reply and the
    sequential-loop seconds of every request precomputed."""
    rng = np.random.default_rng([seed, 3])
    count = planned_requests(duration)
    dues = np.sort(rng.uniform(0.0, duration, count))
    is_values = rng.random(count) < VALUE_SHARE
    hots = rng.integers(0, HOT_SET, count)
    hot_oracle = []
    for j in range(HOT_SET):
        initial = list(system.initial)
        initial[0] = float(j)
        out, loop_s = loop(dataclasses.replace(system, initial=initial))
        hot_oracle.append((digest(out), loop_s))
    items = []
    for i in range(count):
        if is_values[i]:
            values = rng.uniform(-1.0, 1.0, system.m).tolist()
            want, loop_s = loop(dataclasses.replace(system, initial=values))
            items.append(Item(i, float(dues[i]), "values", values=values,
                              want=want, loop_s=loop_s))
        else:
            want, loop_s = hot_oracle[int(hots[i])]
            items.append(Item(i, float(dues[i]), "digest", hot=int(hots[i]),
                              want=want, loop_s=loop_s))
    return items


@dataclasses.dataclass
class Sent:
    request: Request
    lag_s: float
    rtt_s: float
    coalesced: bool = False
    queue_wait_s: Optional[float] = None


def drive(address, fingerprint: str, items: List[Item], spans: Spans,
          corrupt: Corruptor) -> List[Sent]:
    """Open loop: ``CONNECTIONS`` keep-alive clients take the next
    scheduled request when free and send it at its due time."""
    counter = itertools.count()
    lock = threading.Lock()
    results: List[Sent] = []
    first_due = items[0].due if items else 0.0
    origin = time.perf_counter() + 0.05

    def worker() -> None:
        pin_load_generator()
        with ServeClient(*address, timeout=60.0) as client:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(items):
                    return
                due = origin + items[i].due - first_due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                results.append(send(client, fingerprint, items[i], due, spans, corrupt))

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def send(client, fingerprint, item: Item, due: float, spans: Spans,
         corrupt: Corruptor) -> Sent:
    rid = f"r{item.index}"
    sent = time.perf_counter()
    doc, error = None, ""
    with spans.span("request", rid):
        with spans.span(f"serve.client.rtt.{item.kind}", rid):
            try:
                if item.kind == "values":
                    doc = client.solve(fingerprint, values=item.values,
                                       request_id=rid, reply="values")
                else:
                    doc = client.solve(fingerprint, patch={0: float(item.hot)},
                                       request_id=rid, reply="digest")
            except ServeRejected as exc:
                error = f"rejected: {exc.reason}"
            except Exception as exc:  # a raised request counts as failed
                error = f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    ok = False
    if doc is not None:
        if item.kind == "values":
            ok = close_match(corrupt(doc["values"]), item.want)
        else:
            ok = corrupt(doc["digest"]) == item.want
    return Sent(
        Request(item.kind, done - due, item.loop_s, ok, error),
        lag_s=sent - due,
        rtt_s=done - sent,
        coalesced=bool(doc and doc.get("coalesced")),
        queue_wait_s=doc.get("queue_wait_s") if doc else None,
    )


def scrape(address) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """``/metrics`` as ``{(series name, sorted labels): value}``."""
    with ServeClient(*address) as client:
        text = client.metrics_text()
    out = {}
    for line in text.splitlines():
        found = re.match(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$", line)
        if not found or line.startswith("#"):
            continue
        labels = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', found.group(2) or "")))
        out[(found.group(1), labels)] = float(found.group(3))
    return out


def series(metrics, name: str, **labels: str) -> float:
    return sum(
        value
        for (series_name, series_labels), value in metrics.items()
        if series_name == name
        and all((k, v) in series_labels for k, v in labels.items())
    )


def stop(server: Server, notes: Dict) -> None:
    code = server.stop()
    leftovers = glob.glob("/dev/shm/repro_*")
    notes.setdefault("server_exit_codes", []).append(code)
    if leftovers:
        notes.setdefault("shm_leftovers", []).extend(leftovers)
        print(f"warning: shm segments left behind: {leftovers}", file=sys.stderr)


def note_lag(sent: List[Sent], notes: Dict) -> None:
    lags = [s.lag_s for s in sent]
    notes["generator_lag_p50_s"] = quantile(lags, 0.5)
    notes["generator_lag_p90_s"] = quantile(lags, 0.9)
    notes["generator_behind"] = quantile(lags, 0.9) > LAG_LIMIT_S
    if notes["generator_behind"]:
        print("warning: the load generator fell behind its schedule", file=sys.stderr)


def serve_layer(seed: int, seconds: float, scale: str, spans: Spans,
                corrupt: Corruptor, notes: Dict) -> Tuple[List[Sent], Dict[str, float]]:
    """One open-loop phase of ``seconds`` against a fresh server, with
    ``/metrics`` scraped around it: the replies and the serve layer's
    per-layer metrics."""
    system = build(SIZES[scale])
    items = schedule(seed, system, seconds)
    server, fingerprint = start(system)
    try:
        before = scrape(server.address)
        sent = drive(server.address, fingerprint, items, spans, corrupt)
        after = scrape(server.address)
        notes["server_vm_hwm_mb"] = server.vm_hwm_mb()
    finally:
        stop(server, notes)
    note_lag(sent, notes)
    return sent, serve_metrics(sent, before, after)


def serve_metrics(sent: List[Sent], before, after) -> Dict[str, float]:
    def delta(name: str, **labels: str) -> float:
        return series(after, name, **labels) - series(before, name, **labels)

    def med(values) -> float:
        return median([v for v in values if v is not None])

    rtt = {kind: [s.rtt_s for s in sent if s.request.kind == kind]
           for kind in ("digest", "values")}
    lat_count = delta("serve_request_latency_s_count")
    server_latency = (
        delta("serve_request_latency_s_sum") / lat_count if lat_count else 0.0
    )
    width_count = delta("serve_coalesce_width_count")
    all_rtt = [s.rtt_s for s in sent]
    out = {
        "engine.failover.reroutes": delta("engine_failover_reroutes_total"),
        "serve.client.rtt_s.digest": med(rtt["digest"]),
        "serve.client.rtt_s.values": med(rtt["values"]),
        "serve.server.latency_s": server_latency,
        "serve.wire_s": (sum(all_rtt) / len(all_rtt) - server_latency) if all_rtt else 0.0,
        "serve.coalescer.queue_wait_s": med([s.queue_wait_s for s in sent]),
        "serve.coalescer.coalesced_frac": (
            sum(1 for s in sent if s.coalesced) / len(sent) if sent else 0.0
        ),
        "serve.coalescer.width_mean": (
            delta("serve_coalesce_width_sum") / width_count if width_count else 0.0
        ),
        "serve.coalescer.deduped": delta("serve_coalesce_deduped_total"),
        "serve.generator.lag_s": med([s.lag_s for s in sent]),
    }
    for reason in REJECT_REASONS:
        out[f"serve.server.rejected.{reason}"] = delta(
            "serve_rejected_total", reason=reason
        )
    return out
