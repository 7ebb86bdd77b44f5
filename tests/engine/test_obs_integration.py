"""End-to-end telemetry: shm worker snapshots fan into per-worker and
rolled-up master series, a worker fault produces a crash-report JSON
naming the failing round, and Sessions record serve latency."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.core import ADD, OrdinaryIRSystem, run_ordinary
from repro.engine import EngineOptions, Session, solve
from repro.errors import FaultError
from repro.obs.recorder import configure, get_recorder

WORKERS = int(os.environ.get("REPRO_SHM_TEST_WORKERS", "2"))


def int_chain(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return OrdinaryIRSystem.build(
        rng.integers(0, 100, size=n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        ADD,
    )


@pytest.fixture(autouse=True)
def _quiet_recorder():
    configure(dump_dir="")
    get_recorder().clear()
    yield
    configure(dump_dir="")
    get_recorder().clear()


class TestWorkerAggregation:
    def test_per_worker_and_merged_series(self):
        sys_ = int_chain()
        with obs.observed() as (_tracer, registry):
            res = solve(
                sys_,
                options=EngineOptions(backend="shm", workers=WORKERS),
            )
        assert res.values == run_ordinary(sys_)

        # one barrier-wait histogram per worker...
        for rank in range(WORKERS):
            h = registry.get(
                "engine.shm.worker.barrier_wait_s", proc=f"worker-{rank}"
            )
            assert h is not None and h.count > 0, rank
            rounds = registry.get(
                "engine.shm.worker.rounds", proc=f"worker-{rank}"
            )
            assert rounds is not None and rounds.value > 0
        # ...plus the rolled-up series aggregating all of them
        rollup = registry.get("engine.shm.worker.barrier_wait_s")
        assert rollup is not None
        per_worker = sum(
            registry.get(
                "engine.shm.worker.barrier_wait_s", proc=f"worker-{r}"
            ).count
            for r in range(WORKERS)
        )
        assert rollup.count == per_worker
        assert rollup.percentile(0.5) is not None

    def test_no_worker_series_when_unobserved(self):
        sys_ = int_chain(seed=1)
        res = solve(
            sys_,
            options=EngineOptions(backend="shm", workers=WORKERS),
        )
        assert res.values == run_ordinary(sys_)
        # nothing to assert on a registry -- none existed; just ensure
        # a subsequent observed solve still reports cleanly
        with obs.observed() as (_tracer, registry):
            solve(sys_, options=EngineOptions(backend="shm", workers=WORKERS))
        assert registry.get(
            "engine.shm.worker.rounds", proc="worker-0"
        ) is not None


class TestCrashReport:
    def test_worker_fault_dumps_failing_round(self, tmp_path):
        configure(dump_dir=str(tmp_path))
        sys_ = int_chain(seed=2)
        with pytest.raises(FaultError) as info:
            solve(
                sys_,
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    failover=False,
                    backend_options={
                        "_test_crash": {"rank": 0, "round": 1, "once": False},
                    },
                ),
            )
        exc = info.value
        assert exc.exit_code == 7
        assert exc.crash_report_path is not None
        with open(exc.crash_report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["error"]["type"] in (
            "FaultError", "UnrecoverableFaultError"
        )
        assert report["error"]["exit_code"] == 7
        kinds = [e["kind"] for e in report["events"]]
        assert "solve.start" in kinds
        assert "worker.respawn" in kinds
        crashes = [e for e in report["events"] if e["kind"] == "shm.crash"]
        assert crashes, kinds
        # the failing round, reconstructed from the sibling workers'
        # aborted replies, lands in the crash event
        assert crashes[-1]["round"] == 1
        assert 0 in crashes[-1]["crashed"]

    def test_no_dump_without_crash_dir(self):
        sys_ = int_chain(seed=3)
        with pytest.raises(FaultError) as info:
            solve(
                sys_,
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    failover=False,
                    backend_options={
                        "_test_crash": {"rank": 0, "round": 0, "once": False},
                    },
                ),
            )
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
