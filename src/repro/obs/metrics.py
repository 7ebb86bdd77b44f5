"""Metrics registry: counters, gauges and histograms with labels.

The registry is the machine-readable side of the observability layer:
where spans record *when* work happened, metric series record *how
much* -- ``solver.rounds``, ``solver.active_cells``, ``cap.edges_live``,
``pram.superstep.work`` and friends.  A series is identified by its
name plus a frozen label set, so ``registry.counter("solver.rounds",
engine="numpy")`` and the ``engine="python"`` variant accumulate
independently.

All instruments are cheap plain-Python objects; instrumented code
fetches them via :func:`repro.obs.get_registry` and skips everything
when no registry is installed.  :meth:`MetricsRegistry.snapshot`
produces the JSON-able structure the exporters and the bench harness
(``BENCH_results.json``) persist.

v2 additions (the serving-telemetry layer):

* :meth:`Histogram.percentile` -- bucket-bounded quantile estimates
  (p50/p99 latencies) from the fixed log2 bucket ladder, which now
  extends below 1.0 so sub-second latencies resolve;
* windowed min/max/sum/count on histograms
  (:meth:`Histogram.window` / :meth:`Histogram.reset_window`) for
  "since the last scrape" views.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "series_key",
    "bucket_bound",
    "MIN_BUCKET_BOUND",
]

LabelSet = Tuple[Tuple[str, Any], ...]

#: Smallest histogram bucket upper bound (2**-20, ~1 microsecond when
#: observations are seconds); everything at or below lands here.
MIN_BUCKET_BOUND = 2.0 ** -20


def series_key(name: str, labels: Dict[str, Any]) -> Tuple[str, LabelSet]:
    """Canonical dictionary key of one labeled series."""
    return name, tuple(sorted(labels.items()))


def bucket_bound(value: float):
    """The log2-ladder bucket upper bound containing ``value``.

    Bounds are ``..., 0.25, 0.5, 1, 2, 4, ...`` -- integers at and
    above 1 (so historical integer-valued series keep their exact
    bucket keys) and floats below.  Values at or below
    :data:`MIN_BUCKET_BOUND` (including zero and negatives) collapse
    into the bottom bucket.
    """
    if value <= MIN_BUCKET_BOUND:
        return MIN_BUCKET_BOUND
    if value > 0.5:
        bound = 1
        while bound < value:
            bound <<= 1
        return bound
    bound = 0.5
    while bound / 2 >= value:
        bound /= 2
    return bound


class Counter:
    """Monotonically increasing count (rounds, ops, events)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Last-written value plus its observed range (live edges, active
    processors).

    ``ts`` is the wall-clock time of the last :meth:`set`.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "min", "max", "updates", "ts")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.updates: int = 0
        self.ts: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.updates += 1
        self.ts = time.time()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "updates": self.updates,
            "ts": self.ts,
        }


class Histogram:
    """Distribution summary with fixed log2 buckets.

    Tracks count/sum/min/max exactly and the distribution's shape via
    power-of-two bucket upper bounds ``..., 0.25, 0.5, 1, 2, 4, ...``
    -- enough to answer :meth:`percentile` queries to within one
    bucket (a factor of 2) without storing observations.  A secondary
    *window* accumulator (count/sum/min/max since the last
    :meth:`reset_window`) gives "recent" views for live exporters.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "count",
        "sum",
        "min",
        "max",
        "buckets",
        "window_count",
        "window_sum",
        "window_min",
        "window_max",
    )

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.count: int = 0
        self.sum: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[Any, int] = {}  # upper bound (2^k) -> count
        self.window_count: int = 0
        self.window_sum: float = 0
        self.window_min: Optional[float] = None
        self.window_max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bound = bucket_bound(value)
        self.buckets[bound] = self.buckets.get(bound, 0) + 1
        self.window_count += 1
        self.window_sum += value
        self.window_min = (
            value if self.window_min is None else min(self.window_min, value)
        )
        self.window_max = (
            value if self.window_max is None else max(self.window_max, value)
        )

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Bucket-bounded estimate of the ``q``-quantile (``0..1``).

        Walks the bucket ladder to the bucket holding the
        nearest-rank sample (rank ``ceil(q * count)``) and returns its
        upper bound clamped to the observed ``[min, max]`` -- so the
        estimate always lies in the same log2 bucket as the true
        sorted-sample quantile (within a factor of 2).  ``None`` when
        nothing was observed.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        if q == 0:
            return self.min
        rank = math.ceil(q * self.count)
        cum = 0
        for bound, n in sorted(self.buckets.items()):
            cum += n
            if cum >= rank:
                return min(max(float(bound), self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def window(self) -> Dict[str, Any]:
        """Count/sum/min/max accumulated since :meth:`reset_window`."""
        return {
            "count": self.window_count,
            "sum": self.window_sum,
            "min": self.window_min,
            "max": self.window_max,
        }

    def reset_window(self) -> None:
        self.window_count = 0
        self.window_sum = 0
        self.window_min = None
        self.window_max = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.5),
            "p99": self.percentile(0.99),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
            "window": self.window(),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Holds every labeled series produced by one observed run.

    Get-or-create accessors (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) are idempotent per ``(name, labels)``;
    requesting an existing series under a different kind raises, which
    catches name collisions early.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelSet], Any] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        key = series_key(name, labels)
        with self._lock:
            found = self._series.get(key)
            if found is None:
                found = cls(name, dict(labels))
                self._series[key] = found
            elif not isinstance(found, cls):
                raise TypeError(
                    f"metric {name!r} {labels!r} already registered as "
                    f"{found.kind}, requested {cls.kind}"
                )
            return found

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- inspection -------------------------------------------------------

    def series(self) -> Iterator[Any]:
        """Every registered instrument, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._series.items())
        for _key, instrument in items:
            yield instrument

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The series if it exists, else ``None`` (never creates)."""
        return self._series.get(series_key(name, labels))

    def value(self, name: str, default: Any = None, **labels: Any) -> Any:
        """Shortcut: current value of a counter/gauge, or ``default``."""
        found = self.get(name, **labels)
        if found is None:
            return default
        return found.value

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-able dump of every series (the exporter payload)."""
        return [
            {
                "name": s.name,
                "kind": s.kind,
                "labels": s.labels,
                **s.snapshot(),
            }
            for s in self.series()
        ]

    def clear(self) -> None:
        with self._lock:
            self._series.clear()
