"""repro.obs -- unified tracing and metrics for the reproduction.

The paper's claims are *round-count* claims (``ceil(log2 L)``
pointer-jumping rounds, ``ceil(log2 depth)`` CAP iterations, Brent
bursts on the PRAM); this subsystem records them uniformly across
every solver, the PRAM machine and the bench harness:

* :mod:`repro.obs.tracer` -- span trees (what ran, when, with what
  attributes);
* :mod:`repro.obs.metrics` -- labeled counters/gauges/histograms
  (``solver.rounds``, ``cap.edges_live``, ``pram.superstep.work``);
* :mod:`repro.obs.export` -- JSONL event log (schema-validated),
  Chrome-trace-format JSON (Perfetto-loadable), tree summary.

Observation is **off by default** and costs one ``None`` check per
solver phase when off.  Instrumented code asks this module for the
installed tracer/registry::

    from repro import obs

    tracer = obs.get_tracer()       # None unless enabled
    if tracer is not None:
        with tracer.span("solver.round", index=r):
            ...

Users switch it on around a region::

    with obs.observed() as (tracer, registry):
        solve(system, backend="numpy")
    print(obs.tree_summary(tracer, registry))

or process-wide with :func:`enable` / :func:`disable` (the CLI's
``repro trace`` wrapper and ``--trace-out`` flags do exactly this).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional, Tuple

from .export import (
    SCHEMA_VERSION,
    SchemaError,
    to_chrome_trace,
    tree_summary,
    validate_event,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .prom import (
    PromFileWriter,
    load_snapshot_file,
    serve_http,
    to_prometheus,
    write_prom_file,
)
from .recorder import (
    FlightRecorder,
    configure as configure_recorder,
    get_recorder,
    on_structured_error,
    record_event,
)
from .top import diff_snapshots, format_diff, format_top
from .tracer import Span, Tracer, traced

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PromFileWriter",
    "Span",
    "Tracer",
    "traced",
    "configure_recorder",
    "diff_snapshots",
    "enable",
    "enable_metrics",
    "disable",
    "format_diff",
    "format_top",
    "get_recorder",
    "get_tracer",
    "get_registry",
    "is_enabled",
    "load_snapshot_file",
    "maybe_span",
    "observed",
    "on_structured_error",
    "record_event",
    "serve_http",
    "to_chrome_trace",
    "to_prometheus",
    "tree_summary",
    "validate_event",
    "validate_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_prom_file",
]

_install_lock = threading.Lock()
_tracer: Optional[Tracer] = None
_registry: Optional[MetricsRegistry] = None


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled.

    This is the hot-path check: a plain module-global read, no locks.
    """
    return _tracer


def get_registry() -> Optional[MetricsRegistry]:
    """The installed metrics registry, or ``None`` when disabled."""
    return _registry


def is_enabled() -> bool:
    return _tracer is not None or _registry is not None


_NULL_CONTEXT = contextlib.nullcontext()


def maybe_span(tracer: Optional[Tracer], name: str, **attrs):
    """``tracer.span(...)`` when a tracer is given, else a shared no-op
    context (yields ``None``) -- the instrumented-code idiom::

        with obs.maybe_span(tracer, "gir.cap") as sp:
            ...
            if sp is not None:
                sp.set_attribute("iterations", k)
    """
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, **attrs)


def enable(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Tracer, MetricsRegistry]:
    """Install a tracer + registry process-wide; returns both.

    Fresh instances are created when not supplied.  Call
    :func:`disable` (or use :func:`observed`) to uninstall.
    """
    global _tracer, _registry
    with _install_lock:
        _tracer = tracer if tracer is not None else Tracer()
        _registry = registry if registry is not None else MetricsRegistry()
        return _tracer, _registry


def enable_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Install (only) a metrics registry process-wide; returns it.

    The serving-path variant of :func:`enable`: counters and
    histograms (``serve.*``, ``engine.session.*``) come alive while
    span tracing stays off, so the hot path pays the registry's atomic
    increments but no span-tree bookkeeping.  An already-installed
    registry is kept (and returned) rather than replaced.
    """
    global _registry
    with _install_lock:
        if _registry is None:
            _registry = (
                registry if registry is not None else MetricsRegistry()
            )
        return _registry


def disable() -> None:
    """Uninstall the tracer and registry (observation off)."""
    global _tracer, _registry
    with _install_lock:
        _tracer = None
        _registry = None


@contextlib.contextmanager
def observed(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Enable observation for a ``with`` block, restoring the previous
    installation (usually: none) afterwards."""
    global _tracer, _registry
    with _install_lock:
        previous = (_tracer, _registry)
        _tracer = tracer if tracer is not None else Tracer()
        _registry = registry if registry is not None else MetricsRegistry()
        installed = (_tracer, _registry)
    try:
        yield installed
    finally:
        with _install_lock:
            _tracer, _registry = previous
