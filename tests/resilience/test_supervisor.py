"""Pool supervision: heartbeat watchdog, hang recovery, segment reaping.

Unit tests drive :class:`PoolSupervisor` through fake heartbeat
callables (no real pool); integration tests inject a real hang into
the shm worker pool via :mod:`repro.chaos` and assert bounded
kill-and-respawn recovery; subprocess tests assert that NO
shared-memory segment outlives the run -- and no resource_tracker
warnings fire -- across SIGTERM, KeyboardInterrupt, and worker-crash
exits (the historical ``/dev/shm`` leak).
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory

import pytest

from repro.resilience.supervisor import (
    HB_DONE,
    PoolSupervisor,
    reap_segments,
    register_segment,
    registered_segments,
    unregister_segment,
)
from repro.resilience import supervisor as supervisor_mod
from repro.engine import EngineOptions

WORKERS = int(os.environ.get("REPRO_SHM_TEST_WORKERS", "2"))


def wait_until(predicate, timeout=5.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


class TestPoolSupervisorUnit:
    def make(self, hb, kills, alive=lambda r: True):
        return PoolSupervisor(
            read_heartbeats=lambda: list(hb),
            rank_alive=alive,
            kill_rank=kills.append,
            poll_floor_s=0.01,
        )

    def test_lagging_stale_rank_is_killed(self):
        hb, kills = [0, 5], []

        def kill(rank):
            # emulate the real pool: the victim's death aborts the
            # barrier and the siblings finish with "aborted" replies
            kills.append(rank)
            for i in range(len(hb)):
                if i != rank:
                    hb[i] = HB_DONE

        sup = PoolSupervisor(
            read_heartbeats=lambda: list(hb),
            rank_alive=lambda r: True,
            kill_rank=kill,
            poll_floor_s=0.01,
        )
        try:
            sup.arm(0.05)
            assert wait_until(lambda: kills)
            # only the lagging rank; the blocked-but-ahead sibling is
            # a victim of the barrier, not the culprit
            assert kills == [0]
            assert sup.disarm() == [0]
        finally:
            sup.close()

    def test_moving_heartbeats_are_never_killed(self):
        hb, kills = [0, 0], []
        sup = self.make(hb, kills)
        try:
            sup.arm(0.08)
            for _ in range(12):
                hb[0] += 1
                hb[1] += 1
                time.sleep(0.02)
            assert kills == []
            assert sup.disarm() == []
        finally:
            sup.close()

    def test_finished_ranks_are_exempt(self):
        hb, kills = [HB_DONE, 3], []
        sup = self.make(hb, kills)
        try:
            sup.arm(0.05)
            assert wait_until(lambda: kills)
            assert 0 not in kills  # parked at HB_DONE: never a candidate
            assert kills == [1]
        finally:
            sup.close()

    def test_dead_ranks_are_the_crash_path_not_ours(self):
        hb, kills = [0, 0], []
        sup = self.make(hb, kills, alive=lambda r: False)
        try:
            sup.arm(0.05)
            time.sleep(0.3)
            assert kills == []
        finally:
            sup.close()

    def test_disarm_stops_watching(self):
        hb, kills = [0, 0], []
        sup = self.make(hb, kills)
        try:
            sup.arm(0.05)
            sup.disarm()
            time.sleep(0.3)
            assert kills == []
        finally:
            sup.close()


class TestHangRecovery:
    def test_hung_worker_is_killed_respawned_and_result_exact(self):
        from repro.chaos import ChaosPlan, run_chaos

        report = run_chaos(
            ChaosPlan.single("hang", round=1, rank=0, delay_s=60.0),
            n=5_000,
            workers=WORKERS,
            watchdog_s=0.5,
        )
        assert report["ok"], report["error"]
        assert report["oracle_exact"]
        assert report["backend"] == "shm"  # recovered in place
        assert report["hang_kills"] >= 1
        assert report["respawns"] >= 1
        # bounded recovery: watchdog + respawn, nowhere near the 120s
        # barrier backstop that used to be the only way out
        assert report["latency_s"] < 30.0

    def test_watchdog_disabled_leaves_hang_to_the_deadline(self):
        from repro.chaos import ChaosPlan
        from repro.core import ADD, OrdinaryIRSystem
        from repro.engine import solve
        from repro.errors import SolveTimeoutError
        from repro.resilience import SolvePolicy
        import numpy as np

        rng = np.random.default_rng(0)
        n = 2_000
        sys_ = OrdinaryIRSystem.build(
            rng.integers(0, 100, size=n + 1).tolist(),
            np.arange(1, n + 1),
            np.arange(n),
            ADD,
        )
        plan = ChaosPlan.single("hang", round=1, rank=0, delay_s=2.0)
        policy = SolvePolicy(timeout_s=0.5, on_exhaustion="raise")
        started = time.monotonic()
        with pytest.raises((SolveTimeoutError, Exception)):
            solve(
                sys_,
                options=EngineOptions(
                    backend="shm",
                    workers=WORKERS,
                    policy=policy,
                    failover=False,
                    backend_options={
                        "chaos": plan,
                        "watchdog_s": -1.0,
                        "max_retries": 0,
                    },
                ),
            )
        assert time.monotonic() - started < 30.0


class _IsolatedRegistry:
    """Swap out the process-wide segment registry for one test -- the
    suite's own persistent pools keep their registrations."""

    def __enter__(self):
        with supervisor_mod._SEG_LOCK:
            self._saved = dict(supervisor_mod._SEGMENTS)
            supervisor_mod._SEGMENTS.clear()
        return self

    def __exit__(self, *exc):
        with supervisor_mod._SEG_LOCK:
            supervisor_mod._SEGMENTS.update(self._saved)
        return False


class TestSegmentReaper:
    def test_reap_unlinks_registered_segments(self):
        with _IsolatedRegistry():
            seg = shared_memory.SharedMemory(create=True, size=64)
            register_segment(seg.name)
            assert seg.name in registered_segments()
            reaped = reap_segments()
            assert seg.name in reaped
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=seg.name)
            seg.close()

    def test_unregistered_segments_are_left_alone(self):
        with _IsolatedRegistry():
            seg = shared_memory.SharedMemory(create=True, size=64)
            register_segment(seg.name)
            unregister_segment(seg.name)
            assert reap_segments() == []
            probe = shared_memory.SharedMemory(name=seg.name)
            probe.close()
            seg.unlink()
            seg.close()

    def test_reap_is_idempotent(self):
        with _IsolatedRegistry():
            seg = shared_memory.SharedMemory(create=True, size=64)
            register_segment(seg.name)
            assert reap_segments()
            assert reap_segments() == []
            seg.close()

    def test_fork_child_never_reaps_the_masters_segments(self):
        seg = shared_memory.SharedMemory(create=True, size=64)
        register_segment(seg.name)
        try:
            ctx = multiprocessing.get_context("fork")
            queue = ctx.Queue()

            def child(q):
                q.put(reap_segments())

            proc = ctx.Process(target=child, args=(queue,))
            proc.start()
            assert queue.get(timeout=10) == []
            proc.join(timeout=10)
            # master's segment untouched by the child's reap attempt
            probe = shared_memory.SharedMemory(name=seg.name)
            probe.close()
        finally:
            unregister_segment(seg.name)
            seg.unlink()
            seg.close()


_LEAK_SCRIPT_PRELUDE = """
import os, signal, sys
import numpy as np
from repro.core import ADD, OrdinaryIRSystem
from repro.engine import EngineOptions, solve
from repro.errors import FaultError
from repro.resilience.supervisor import registered_segments

rng = np.random.default_rng(0)
n = 2000
sys_ = OrdinaryIRSystem.build(
    rng.integers(0, 100, size=n + 1).tolist(),
    np.arange(1, n + 1),
    np.arange(n),
    ADD,
)
"""


class TestNoSegmentOutlivesTheRun:
    def run_script(self, body, expect_rc=None):
        script = _LEAK_SCRIPT_PRELUDE + textwrap.dedent(body)
        env = dict(os.environ)
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        segs = []
        for line in proc.stdout.splitlines():
            if line.startswith("SEGS:"):
                segs = [s for s in line[5:].split(",") if s]
        assert segs, (proc.stdout, proc.stderr)
        leaked = [s for s in segs if os.path.exists(f"/dev/shm/{s}")]
        assert leaked == [], f"segments outlived the run: {leaked}"
        assert "resource_tracker" not in proc.stderr, proc.stderr
        if expect_rc is not None:
            assert proc.returncode == expect_rc, (
                proc.returncode, proc.stderr
            )
        return proc

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a /dev/shm mount"
    )
    def test_sigterm_reaps_everything(self):
        self.run_script(
            """
            solve(sys_, options=EngineOptions(backend="shm", workers=2))
            print("SEGS:" + ",".join(registered_segments()), flush=True)
            os.kill(os.getpid(), signal.SIGTERM)
            """,
            expect_rc=-signal.SIGTERM,
        )

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a /dev/shm mount"
    )
    def test_keyboard_interrupt_reaps_everything(self):
        self.run_script(
            """
            solve(sys_, options=EngineOptions(backend="shm", workers=2))
            print("SEGS:" + ",".join(registered_segments()), flush=True)
            raise KeyboardInterrupt
            """
        )

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a /dev/shm mount"
    )
    def test_worker_crash_leaves_no_segments(self):
        self.run_script(
            """
            try:
                solve(
                    sys_,
                    options=EngineOptions(
                        backend="shm",
                        workers=2,
                        failover=False,
                        backend_options={
                            "_test_crash": {"rank": 0, "round": 1, "once": False},
                        },
                    ),
                )
            except FaultError:
                pass
            print("SEGS:" + ",".join(registered_segments()), flush=True)
            """,
            expect_rc=0,
        )
