"""The backend failover ladder: ``numpy -> python``.

Covers ladder construction (downward-only degradation, capability
filtering, pram opt-out), transparent failover from a numpy kernel
whose values fail the differential check to the exact python backend
(solve and Session), the ``failover=False`` escape hatch, and the
removed ``shm`` backend and ``workers`` option failing cleanly.
"""

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import ADD, OrdinaryIRSystem, run_ordinary
from repro.core.serialize import dump_system
from repro.engine import (
    EngineOptions,
    Session,
    available_backends,
    failover_ladder,
    get_backend,
    solve,
)
from repro.engine.exec_ordinary import NumpyChains
from repro.engine.problem import Problem
from repro.errors import VerificationError


def int_chain(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return OrdinaryIRSystem.build(
        rng.integers(0, 100, size=n + 1).tolist(),
        np.arange(1, n + 1),
        np.arange(n),
        ADD,
    )


class CorruptChains(NumpyChains):
    """The numpy chain kernel with every solved value off by one."""

    def solved(self):
        return super().solved() + 1


@pytest.fixture
def corrupt_numpy(monkeypatch):
    monkeypatch.setitem(get_backend("numpy").kernels, "chains", CorruptChains)


CHECKED = EngineOptions(backend="numpy", checked=True)


class TestLadderShape:
    def test_numpy_degrades_to_python_only(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("numpy"), problem)
        assert [b.name for b in rungs] == ["numpy", "python"]

    def test_python_is_the_last_rung(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("python"), problem)
        assert [b.name for b in rungs] == ["python"]

    def test_pram_never_reroutes(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("pram"), problem)
        assert [b.name for b in rungs] == ["pram"]

    def test_batch_filters_non_batch_rungs(self):
        problem = Problem.from_system(int_chain())
        rungs = failover_ladder(get_backend("numpy"), problem, batch=True)
        assert [b.name for b in rungs] == ["numpy"]


class TestSolveFailover:
    def test_corrupt_numpy_fails_over_to_python(self, corrupt_numpy):
        sys_ = int_chain(seed=11)
        with obs.observed() as (_tracer, registry):
            res = solve(sys_, options=CHECKED)
        assert res.values == run_ordinary(sys_)
        assert res.backend == "python"
        assert res.failover_from == "numpy"
        reroutes = registry.value(
            "engine.failover.reroutes", frm="numpy", to="python", family="ordinary"
        )
        assert reroutes == 1

    def test_failover_false_surfaces_the_raw_fault(self, corrupt_numpy):
        with pytest.raises(VerificationError) as info:
            solve(int_chain(seed=11), options=CHECKED.replace(failover=False))
        assert info.value.exit_code == 6

    def test_healthy_solve_reports_no_failover(self):
        sys_ = int_chain(seed=13)
        res = solve(sys_, options=CHECKED)
        assert res.values == run_ordinary(sys_)
        assert res.backend == "numpy"
        assert res.failover_from is None


class TestSessionFailover:
    def test_session_fails_over_to_python(self, corrupt_numpy):
        sys_ = int_chain(n=600, seed=15)
        res = Session(sys_, options=CHECKED).solve()
        assert res.values == run_ordinary(sys_)
        assert res.backend == "python"
        assert res.failover_from == "numpy"

    def test_session_failover_false_raises(self, corrupt_numpy):
        session = Session(
            int_chain(n=600, seed=16), options=CHECKED.replace(failover=False)
        )
        with pytest.raises(VerificationError):
            session.solve()


class TestShmRemoved:
    def test_shm_backend_is_unknown(self):
        with pytest.raises(ValueError, match="available") as info:
            solve(int_chain(), options=EngineOptions(backend="shm"))
        for name in available_backends():
            assert name in str(info.value)

    def test_cli_backend_shm_is_a_usage_error(self, tmp_path):
        path = str(tmp_path / "chain.json")
        dump_system(int_chain(n=16), path)
        with pytest.raises(SystemExit) as info:
            main(["solve", path, "--backend", "shm"])
        assert info.value.code == 2

    def test_workers_option_is_gone(self):
        with pytest.raises(TypeError):
            EngineOptions(workers=2)
