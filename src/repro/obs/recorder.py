"""Always-on flight recorder: the last K structured events, cheap.

Unlike the tracer/registry (opt-in, off by default), the flight
recorder runs unconditionally: a fixed-size ring buffer of small
event dicts that instrumented code appends to with one list write.
Recording does **not** take a lock -- slot assignment rides on the
GIL, which is exactly the fault-tolerance trade a black box makes:
a torn read during a concurrent snapshot is acceptable, a mutex on
the solver hot path is not.  Snapshots and crash dumps (rare) do
lock.

Event sources (each a one-line call at an existing decision point):

=====================  ===================================================
``solve.start/end``    :mod:`repro.engine.api` front doors
``engine.failover*``   :mod:`repro.engine.failover` reroutes
``guard.trip`` /       :class:`repro.resilience.NumericGuard` ladder
``guard.escalation``
``policy.exhausted``   :class:`repro.resilience.PolicyEnforcer`
``fault.injected``     :mod:`repro.resilience.faults`
``serve.start/stop``   :mod:`repro.serve` server lifecycle
``error``              every :class:`repro.errors.ReproError` construction
=====================  ===================================================

When a structured error (exit codes 3-7) is constructed and a dump
directory is configured -- ``configure(dump_dir=...)`` or the
``REPRO_CRASH_DIR`` environment variable -- the recorder writes a
crash-report JSON (``crash-<pid>-<seq>.json``) containing the error's
diagnosis and every buffered event, newest last.  Without a dump dir
the event is buffered but nothing touches the filesystem, so library
users and the test suite pay nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "get_recorder",
    "configure",
    "record_event",
    "on_structured_error",
]

DEFAULT_CAPACITY = 256
CRASH_SCHEMA_VERSION = 1


class FlightRecorder:
    """Fixed-capacity ring buffer of structured events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be positive")
        self.capacity = capacity
        self._slots: List[Optional[Dict[str, Any]]] = [None] * capacity
        self._seq = 0
        self._lock = threading.Lock()  # snapshot/dump only, never record
        self.dump_dir: Optional[str] = os.environ.get("REPRO_CRASH_DIR") or None
        self._dumps = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; never raises, never blocks on the lock."""
        seq = self._seq
        self._seq = seq + 1
        event = {"seq": seq, "ts": time.time(), "kind": kind}
        event.update(fields)
        self._slots[seq % self.capacity] = event

    def events(self) -> List[Dict[str, Any]]:
        """Buffered events, oldest first."""
        with self._lock:
            slots = list(self._slots)
        present = [e for e in slots if e is not None]
        present.sort(key=lambda e: e["seq"])
        return present

    def clear(self) -> None:
        with self._lock:
            self._slots = [None] * self.capacity
            self._seq = 0

    # -- crash reports ----------------------------------------------------

    def crash_report(self, exc: BaseException) -> Dict[str, Any]:
        """The JSON-able report for ``exc`` (no filesystem side effect)."""
        error: Dict[str, Any] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": getattr(exc, "exit_code", 1),
            "category": getattr(exc, "category", "generic"),
        }
        describe = getattr(exc, "diagnosis", None)
        if callable(describe):
            try:
                error["diagnosis"] = describe()
            except Exception:
                pass  # subclass attrs may not exist yet mid-__init__
        return {
            "schema_version": CRASH_SCHEMA_VERSION,
            "ts": time.time(),
            "pid": os.getpid(),
            "error": error,
            "events": self.events(),
        }

    def dump_crash(self, exc: BaseException) -> Optional[str]:
        """Write a crash report if a dump dir is configured; returns
        the report path, or ``None`` when dumping is off or fails.
        Never raises: the recorder must not mask the original error.
        """
        directory = self.dump_dir
        if not directory:
            return None
        try:
            report = self.crash_report(exc)
            os.makedirs(directory, exist_ok=True)
            with self._lock:
                self._dumps += 1
                seq = self._dumps
            path = os.path.join(directory, f"crash-{os.getpid()}-{seq}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=1, default=repr)
            return path
        except Exception:
            return None


_recorder = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process-wide recorder (always installed)."""
    return _recorder


def configure(
    *,
    capacity: Optional[int] = None,
    dump_dir: Optional[str] = None,
) -> FlightRecorder:
    """Resize the ring and/or set the crash-dump directory.

    Passing ``dump_dir=""`` disables dumping.  Returns the (possibly
    new) recorder; resizing drops buffered events.
    """
    global _recorder
    if capacity is not None and capacity != _recorder.capacity:
        fresh = FlightRecorder(capacity)
        fresh.dump_dir = _recorder.dump_dir
        _recorder = fresh
    if dump_dir is not None:
        _recorder.dump_dir = dump_dir or None
    return _recorder


def record_event(kind: str, **fields: Any) -> None:
    """Module-level shorthand: ``get_recorder().record(...)``."""
    _recorder.record(kind, **fields)


def on_structured_error(exc: BaseException) -> Optional[str]:
    """Hook called from :class:`repro.errors.ReproError` construction:
    buffer an ``error`` event and, for the structured exit codes
    (3-8), dump a crash report when a dump dir is configured."""
    code = getattr(exc, "exit_code", 1)
    _recorder.record(
        "error",
        error=type(exc).__name__,
        message=str(exc)[:200],
        exit_code=code,
    )
    if 3 <= code <= 8:
        return _recorder.dump_crash(exc)
    return None
