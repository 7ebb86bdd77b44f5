"""End-to-end telemetry: an unrecoverable PRAM fault produces a
crash-report JSON, and Sessions record serve latency."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import ADD, OrdinaryIRSystem, run_ordinary
from repro.engine import EngineOptions, Session, solve
from repro.errors import FaultError
from repro.obs.recorder import configure, get_recorder
from repro.resilience import FaultEvent, FaultPlan


def int_chain(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return OrdinaryIRSystem.build(
        rng.integers(0, 100, size=n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        ADD,
    )


def unrecoverable_pram():
    """PRAM options whose first superstep is corrupted differently on
    every attempt, so no two executions ever agree."""
    plan = FaultPlan(
        events=[
            FaultEvent(
                kind="corrupt", step=0, array="A", index=0, value=-a - 1, attempt=a
            )
            for a in range(8)
        ]
    )
    return EngineOptions(
        backend="pram",
        failover=False,
        backend_options={"processors": 2, "fault_plan": plan},
    )


@pytest.fixture(autouse=True)
def _quiet_recorder():
    configure(dump_dir="")
    get_recorder().clear()
    yield
    configure(dump_dir="")
    get_recorder().clear()


class TestCrashReport:
    def test_pram_fault_dumps_crash_report(self, tmp_path):
        configure(dump_dir=str(tmp_path))
        with pytest.raises(FaultError) as info:
            solve(int_chain(n=16, seed=2), options=unrecoverable_pram())
        exc = info.value
        assert exc.exit_code == 7
        assert exc.crash_report_path is not None
        with open(exc.crash_report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["error"]["type"] == "UnrecoverableFaultError"
        assert report["error"]["exit_code"] == 7
        kinds = [e["kind"] for e in report["events"]]
        assert "solve.start" in kinds
        assert "fault.injected" in kinds

    def test_no_dump_without_crash_dir(self):
        with pytest.raises(FaultError) as info:
            solve(int_chain(n=16, seed=3), options=unrecoverable_pram())
        assert info.value.crash_report_path is None


class TestSessionLatency:
    def test_latency_histogram_per_serve(self):
        sys_ = int_chain(n=300, seed=4)
        with obs.observed() as (_tracer, registry):
            session = Session(sys_, options=EngineOptions(backend="numpy"))
            for _ in range(5):
                session.solve()
        h = registry.get(
            "engine.session.latency_s", backend="numpy", family="ordinary"
        )
        assert h is not None
        assert h.count == 5
        assert h.percentile(0.99) >= h.percentile(0.5) > 0

    def test_batch_counts_once_per_batch(self):
        sys_ = int_chain(n=200, seed=5)
        rows = [
            np.random.default_rng(i).integers(0, 9, size=201).tolist()
            for i in range(3)
        ]
        with obs.observed() as (_tracer, registry):
            session = Session(sys_, options=EngineOptions(backend="numpy"))
            session.solve_batch(rows)
        h = registry.get(
            "engine.session.latency_s", backend="numpy", family="ordinary"
        )
        assert h is not None and h.count == 1

    def test_no_histogram_when_unobserved(self):
        sys_ = int_chain(n=100, seed=6)
        session = Session(sys_, options=EngineOptions(backend="numpy"))
        out = session.solve()
        assert out.values == run_ordinary(sys_)
