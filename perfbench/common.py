"""Shared pieces of the repository benchmark: request records, the
end-to-end metric arithmetic, benchmark-side span recording, oracle
comparisons and run provenance.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Declared oracle tolerance for float replies (``forest``, ``affine``,
#: the ``cold`` float requests and ``serve_open`` value replies):
#: ``|got - want| <= ATOL + RTOL * |want|`` per cell.  Integer,
#: modular and batch replies must match bit for bit.
RTOL = 1e-9
ATOL = 1e-9


@dataclass
class Context:
    """One run's settings, as parsed by ``run.py``."""

    seed: int
    seconds: float
    trace: bool
    scale: str
    corrupt_every: int
    spans: "Spans"
    #: ``time.perf_counter()`` after which no new round may start.
    deadline: float
    #: Set when a closed loop stopped short of its planned rounds at the
    #: deadline; such a run did less work than planned and is reported
    #: as not correct.
    truncated: bool = False


@dataclass
class Request:
    """One timed program call and its oracle verdict."""

    kind: str
    latency_s: float
    loop_s: float = 0.0
    ok: bool = True
    error: str = ""


@dataclass
class WorkloadResult:
    """What a workload hands back to ``run.py``."""

    requests: List[Request] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    plan_bytes: float = 0.0
    peak_rss_mb: float = 0.0
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


# -- statistics ---------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    xs = sorted(values)
    if not xs:
        return 0.0
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_quantile(count: int, beyond: int) -> float:
    """The highest whole percentile with at least ``beyond`` of
    ``count`` samples beyond it (the median when there are too few)."""
    if count <= 0:
        return 0.5
    return max(0.5, math.floor(100 * (count - beyond) / count) / 100)


def closed_loop(ctx: Context, rounds: int, round_fn) -> List[Request]:
    """``rounds`` whole rounds, one after another; no round starts once
    the run's wall-clock deadline would be passed, and a loop stopped
    that way marks the run ``truncated``."""
    requests: List[Request] = []
    last_round = 0.0
    for _ in range(rounds):
        if requests and time.perf_counter() + last_round > ctx.deadline:
            ctx.truncated = True
            break
        t0 = time.perf_counter()
        requests.extend(round_fn(len(requests)))
        last_round = time.perf_counter() - t0
    return requests


def host_factor(requests: Sequence[Request],
                loop_nominal_s: Dict[str, float]) -> float:
    """How slow the host ran during this run, relative to the recorded
    host: the median over requests of the sequential loop's seconds
    divided by that request kind's recorded-host median
    (``loop_nominal_s``).

    On the recorded host (a shared 2-vCPU VM) a fixed Python work item
    took 0.24 to 0.41 s within one minute, in CPU time as much as in
    wall time, so raw seconds of the same code moved by a quarter
    between runs.  A separate calibration loop timed once per round did
    not follow those swings; the loop the benchmark already runs beside
    every request, on the same inputs, did.  End-to-end times are
    therefore reported divided by this factor, in recorded-host
    seconds.  A change to the loops themselves
    (``repro.core.sequential``, ``run_moebius_sequential``) moves the
    factor; compare such a change on the raw seconds in the run notes.
    """
    ratios = [r.loop_s / loop_nominal_s[r.kind] for r in requests if r.loop_s > 0]
    return median(ratios) if ratios else 1.0


def end_to_end(result: WorkloadResult, tail_q: float,
               factor: float = 1.0) -> Dict[str, float]:
    """The eight end-to-end metrics from a workload's request records,
    with times divided by the host ``factor`` (see :func:`host_factor`).

    A failed request counts as missing every latency limit (infinite
    latency in the percentiles) and is left out of throughput and of
    ``speedup_vs_loop``, a ratio of two times taken side by side and so
    not rescaled.
    """
    reqs = result.requests
    good = [r for r in reqs if r.ok]
    lat = [r.latency_s / factor if r.ok else math.inf for r in reqs]
    busy = sum(r.latency_s for r in good)
    return {
        "setup_s": median(result.setup_s) / factor,
        "throughput_rps": len(good) * factor / busy if busy > 0 else 0.0,
        "latency_p50_s": quantile(lat, 0.5),
        "latency_tail_s": quantile(lat, tail_q),
        "speedup_vs_loop": sum(r.loop_s for r in good) / busy if busy else 0.0,
        "plan_bytes": float(result.plan_bytes),
        "peak_rss_mb": float(result.peak_rss_mb),
        "success_frac": len(good) / len(reqs) if reqs else 0.0,
    }


def service_rate(requests: Sequence[Request]) -> float:
    """Correct requests per second of summed program latency."""
    busy = sum(r.latency_s for r in requests if r.ok)
    return sum(1 for r in requests if r.ok) / busy if busy else 0.0


def own_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- oracle -------------------------------------------------------------------


def exact_match(got: Sequence[Any], want: Sequence[Any]) -> bool:
    return len(got) == len(want) and list(got) == list(want)


def close_match(got: Sequence[float], want: Sequence[float]) -> bool:
    import numpy as np

    g = np.asarray(got, dtype=np.float64)
    w = np.asarray(want, dtype=np.float64)
    return g.shape == w.shape and bool(
        np.all(np.abs(g - w) <= ATOL + RTOL * np.abs(w))
    )


class Corruptor:
    """Benchmark self-test hook: perturbs every ``every``-th reply
    before the oracle sees it, so a silent oracle shows as failures."""

    def __init__(self, every: int):
        self.every = every
        self.seen = 0
        self._lock = threading.Lock()

    def __call__(self, reply: Any) -> Any:
        if self.every <= 0:
            return reply
        with self._lock:
            self.seen += 1
            hit = self.seen % self.every == 0
        return _damage(reply) if hit else reply


def _damage(reply: Any) -> Any:
    """A copy of a reply (value list, list of rows, or digest) with its
    last element changed."""
    if isinstance(reply, str):
        return reply[:-1] + ("0" if reply[-1:] != "0" else "1")
    bad = list(reply)
    bad[-1] = _damage(bad[-1]) if isinstance(bad[-1], (list, str)) else bad[-1] + 1
    return bad


# -- spans --------------------------------------------------------------------


class Spans:
    """Benchmark-side spans around calls into each layer.

    Each span is ``(name, start, end, parent, request id)``; spans stay
    in memory and are written out by :meth:`dump` when the run ends.
    A disabled recorder hands out a shared no-op context.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, rid: str = ""):
        return _Span(self, name, rid) if self.enabled else _NULL_SPAN

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus the part its
        direct children cover."""
        child_s = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        totals: Dict[str, float] = {}
        for i, rec in enumerate(self.records):
            own = rec["end"] - rec["start"] - child_s[i]
            totals[rec["name"]] = totals.get(rec["name"], 0.0) + own
        return totals

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, rec in enumerate(self.records):
                handle.write(json.dumps({"id": i, **rec}) + "\n")


class _Span:
    __slots__ = ("spans", "name", "rid", "index", "start")

    def __init__(self, spans: Spans, name: str, rid: str):
        self.spans = spans
        self.name = name
        self.rid = rid

    def __enter__(self) -> "_Span":
        stack = self.spans._stack()
        parent = stack[-1] if stack else None
        with self.spans._lock:
            self.index = len(self.spans.records)
            self.spans.records.append(
                {
                    "name": self.name,
                    "start": 0.0,
                    "end": 0.0,
                    "parent": parent,
                    "rid": self.rid,
                }
            )
        stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        rec = self.spans.records[self.index]
        rec["start"] = self.start
        rec["end"] = end
        self.spans._stack().pop()


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# -- counters -----------------------------------------------------------------


def counter_total(registry, name: str, **labels: Any) -> float:
    """Sum of a counter over every series matching ``labels``."""
    total = 0.0
    for series in registry.series():
        if series.name != name or series.kind != "counter":
            continue
        if all(series.labels.get(k) == v for k, v in labels.items()):
            total += series.value
    return total


def histogram_sum(registry, name: str, **labels: Any) -> float:
    total = 0.0
    for series in registry.series():
        if series.name != name or series.kind != "histogram":
            continue
        if all(series.labels.get(k) == v for k, v in labels.items()):
            total += series.sum
    return total


# -- provenance ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """BLAKE2 digest of every ``src/**/*.py`` file, path and bytes: the
    program's identity when the checkout is not a git repository."""
    hsh = hashlib.blake2b(digest_size=12)
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                hsh.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    hsh.update(handle.read())
    return hsh.hexdigest()


def provenance(seed: int) -> Dict[str, Any]:
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "seed": seed,
    }
