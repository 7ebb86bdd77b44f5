"""Prometheus text-format exposition for metric snapshots.

Converts :meth:`MetricsRegistry.snapshot` entries into the Prometheus
text exposition format (version 0.0.4) so a scraper -- or a human with
``curl`` -- can watch a solve fleet live.  Naming conventions:

* metric names are sanitized (``.`` and other invalid characters
  become ``_``): ``engine.session.latency_s`` scrapes as
  ``engine_session_latency_s``;
* counters get the conventional ``_total`` suffix;
* histograms expose cumulative ``<name>_bucket{le="..."}`` samples on
  the log2 ladder plus ``_sum`` and ``_count``;
* gauges expose their last value plus ``<name>_min``/``<name>_max``
  companions (the registry tracks the range, Prometheus gauges do
  not).

Two transports:

* :func:`write_prom_file` -- atomic (tmp + rename) snapshot file for
  the node-exporter ``textfile`` collector pattern; call it
  periodically or use :class:`PromFileWriter`;
* :func:`serve_http` -- a stdlib :mod:`http.server` endpoint
  (``GET /metrics``) fed by any zero-argument callable returning
  snapshot entries; ``repro obs serve`` wraps it.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import Any, Dict, Iterable, List, Optional

from .metrics import MetricsRegistry

__all__ = [
    "sanitize_name",
    "to_prometheus",
    "write_prom_file",
    "PromFileWriter",
    "serve_http",
    "load_snapshot_file",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_NAME = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_name(name: str) -> str:
    """A valid Prometheus metric name (dots and dashes become ``_``)."""
    clean = _INVALID_NAME.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _escape_value(value: Any) -> str:
    text = str(value)
    return text.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _label_str(labels: Dict[str, Any], extra: Optional[List[str]] = None) -> str:
    parts = [
        f'{_INVALID_LABEL.sub("_", str(k))}="{_escape_value(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.extend(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _num(value: Any) -> str:
    if value is None:
        return "NaN"
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def to_prometheus(entries: Iterable[Dict[str, Any]]) -> str:
    """Render snapshot entries as Prometheus exposition text.

    ``entries`` is the output of :meth:`MetricsRegistry.snapshot` (or
    the same structure loaded back from a JSON file).  Series sharing
    a name emit one ``# TYPE`` header.
    """
    lines: List[str] = []
    typed: set = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in entries:
        kind = entry.get("kind")
        labels = entry.get("labels", {})
        if kind == "counter":
            name = sanitize_name(entry["name"]) + "_total"
            header(name, "counter")
            lines.append(f"{name}{_label_str(labels)} {_num(entry['value'])}")
        elif kind == "gauge":
            if not entry.get("updates"):
                continue
            name = sanitize_name(entry["name"])
            header(name, "gauge")
            sel = _label_str(labels)
            lines.append(f"{name}{sel} {_num(entry['value'])}")
            header(name + "_min", "gauge")
            lines.append(f"{name}_min{sel} {_num(entry['min'])}")
            header(name + "_max", "gauge")
            lines.append(f"{name}_max{sel} {_num(entry['max'])}")
        elif kind == "histogram":
            name = sanitize_name(entry["name"])
            header(name, "histogram")
            cumulative = 0
            for bound, count in sorted(
                ((float(b), c) for b, c in entry.get("buckets", {}).items())
            ):
                cumulative += count
                le = 'le="' + _num(bound) + '"'
                lines.append(
                    f"{name}_bucket{_label_str(labels, [le])} {cumulative}"
                )
            inf = 'le="+Inf"'
            lines.append(
                f"{name}_bucket{_label_str(labels, [inf])} {entry['count']}"
            )
            sel = _label_str(labels)
            lines.append(f"{name}_sum{sel} {_num(entry['sum'])}")
            lines.append(f"{name}_count{sel} {entry['count']}")
    return "\n".join(lines) + "\n"


def write_prom_file(
    path: str,
    source: Any,
) -> str:
    """Atomically write the exposition text for ``source`` to ``path``.

    ``source`` may be a :class:`MetricsRegistry`, a snapshot list, or
    a zero-argument callable producing either.  Returns the text
    written.  Atomic (write-to-temp then :func:`os.replace`) so a
    concurrent textfile-collector scrape never sees a torn file.
    """
    text = to_prometheus(_resolve(source))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)
    return text


def _resolve(source: Any) -> List[Dict[str, Any]]:
    if callable(source) and not isinstance(source, MetricsRegistry):
        source = source()
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return list(source)


class PromFileWriter:
    """Background thread re-writing a Prometheus textfile periodically.

    ::

        writer = PromFileWriter("metrics.prom", registry, interval_s=5)
        writer.start()
        ...
        writer.stop()   # writes one final snapshot
    """

    def __init__(
        self,
        path: str,
        source: Any,
        *,
        interval_s: float = 5.0,
    ) -> None:
        self.path = path
        self.source = source
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "PromFileWriter":
        if self._thread is not None:
            raise RuntimeError("writer already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-prom-writer", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                write_prom_file(self.path, self.source)
            except Exception:
                pass  # a failed scrape write must not kill the solve

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        try:
            write_prom_file(self.path, self.source)
        except Exception:
            pass


def load_snapshot_file(path: str) -> List[Dict[str, Any]]:
    """Snapshot entries from a JSON file (either a bare snapshot list
    or an object with a ``"metrics"`` key, as the CLI writes)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("metrics", [])
    return data


def serve_http(
    source: Any,
    *,
    port: int = 0,
    host: str = "127.0.0.1",
) -> "http.server.ThreadingHTTPServer":
    """An HTTP server exposing ``GET /metrics`` for ``source`` (any
    :func:`write_prom_file`-style source).  Returned unstarted: call
    ``serve_forever()`` (the CLI does) or drive it from a thread in
    tests; ``server.server_address[1]`` is the bound port (useful with
    ``port=0``).  :mod:`http.server` (and with it ``email``, ``socket``
    and ``ssl``) is imported here, so a process that only solves never
    loads it."""
    import http.server

    class MetricsHandler(http.server.BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                self.send_error(404, "try /metrics")
                return
            try:
                body = to_prometheus(_resolve(source)).encode("utf-8")
            except Exception as exc:  # surface scrape failures as 500s
                self.send_error(500, str(exc))
                return
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args: Any) -> None:  # quiet by default
            pass

    return http.server.ThreadingHTTPServer((host, port), MetricsHandler)
