"""The ``verify_plan=`` opt-in seam (solve / execute / Session), the
``repro check`` / ``repro lint`` CLI verbs, and the package surface.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.check import mutate_plan
from repro.cli import main
from repro.core import FLOAT_MUL
from repro.core.serialize import dump_system
from repro.core.workloads import (
    chain_system,
    fibonacci_gir_system,
    random_gir_system,
)
from repro.engine import EngineOptions, Session, execute, solve
from repro.engine.plan import plan_to_dict
from repro.engine.planner import PlanCache
from repro.engine.problem import Problem
from repro.errors import PlanVerificationError


def counter_value(registry, name, **labels):
    total = 0
    for entry in registry.snapshot():
        if entry["name"] == name and all(
            entry["labels"].get(k) == v for k, v in labels.items()
        ):
            total += entry["value"]
    return total


class TestSolveSeam:
    def test_verified_solve_matches_unverified(self):
        system = chain_system(120)
        plain = solve(
            system,
            cache=PlanCache(),
            options=EngineOptions(backend="numpy"),
        )
        checked = solve(
            system,
            cache=PlanCache(),
            options=EngineOptions(backend="numpy", verify_plan=True),
        )
        assert checked.values == plain.values

    def test_counters_count_accepted_verifications(self):
        system = chain_system(60)
        with obs.observed() as (_tracer, registry):
            solve(
                system,
                cache=PlanCache(),
                options=EngineOptions(backend="numpy", verify_plan=True),
            )
        assert (
            counter_value(
                registry,
                "check.plan.verifications",
                family="ordinary",
                outcome="accepted",
            )
            >= 1
        )
        assert (
            counter_value(
                registry,
                "check.preconditions",
                family="ordinary",
                outcome="accepted",
            )
            == 1
        )

    def test_caller_plan_verified_before_execution(self):
        system = chain_system(80)
        good = solve(
            system,
            cache=PlanCache(),
            options=EngineOptions(backend="numpy"),
        ).plan
        bad = mutate_plan(good, "perturb_gather", seed=0).plan
        with pytest.raises(PlanVerificationError):
            execute(
                bad,
                system,
                options=EngineOptions(backend="numpy", verify_plan=True),
            )
        # The same corrupted plan runs unchecked without the opt-in --
        # that's exactly the hole verify_plan= closes.
        execute(bad, system, options=EngineOptions(backend="numpy"))

    def test_poisoned_cache_hit_rejected(self):
        system = chain_system(70)
        problem = Problem.from_system(system)
        good = solve(
            system,
            cache=PlanCache(),
            options=EngineOptions(backend="numpy"),
        ).plan
        cache = PlanCache()
        cache.put(
            problem.fingerprint(), mutate_plan(good, "corrupt_pred", seed=1).plan
        )
        with pytest.raises(PlanVerificationError) as exc_info:
            solve(
                system,
                cache=cache,
                options=EngineOptions(backend="numpy", verify_plan=True),
            )
        assert exc_info.value.report is not None

    def test_precondition_failure_raises_before_planning(self):
        from repro.core import ADD, OrdinaryIRSystem

        system = OrdinaryIRSystem.build(
            [1.0, 1.0, 1.0], [1, 1], [0, 0], ADD, validate=False
        )
        with pytest.raises(PlanVerificationError) as exc_info:
            solve(
                system,
                cache=PlanCache(),
                options=EngineOptions(backend="numpy", verify_plan=True),
            )
        assert exc_info.value.findings[0].code == "PRE001"


class TestSessionSeam:
    def test_session_verifies_pinned_plan(self):
        system = chain_system(90)
        session = Session(
            system,
            options=EngineOptions(backend="numpy", verify_plan=True),
        )
        plain = Session(system, options=EngineOptions(backend="numpy"))
        assert session.solve().values == plain.solve().values

    def test_gir_session_verifies_captured_plan(self):
        system = fibonacci_gir_system(12)
        session = Session(
            system,
            options=EngineOptions(backend="numpy", verify_plan=True),
        )
        result = session.solve()
        assert result.plan is not None  # captured and verified


class TestCLI:
    def write_plan(self, tmp_path, plan, name):
        path = tmp_path / name
        path.write_text(json.dumps(plan_to_dict(plan)))
        return str(path)

    def test_check_accepts_genuine_plan_file(self, tmp_path, capsys):
        plan = solve(
            chain_system(100),
            cache=PlanCache(),
            options=EngineOptions(backend="numpy"),
        ).plan
        path = self.write_plan(tmp_path, plan, "plan.json")
        assert main(["check", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_rejects_mutated_plan_with_exit_8(self, tmp_path, capsys):
        plan = solve(
            chain_system(100),
            cache=PlanCache(),
            options=EngineOptions(backend="numpy"),
        ).plan
        bad = mutate_plan(plan, "swap_rounds", seed=0).plan
        path = self.write_plan(tmp_path, bad, "bad.json")
        assert main(["check", path, "--json"]) == 8
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(f["code"].startswith("SCH") for f in report["findings"])

    def test_check_chain_plan_file(self, tmp_path, capsys):
        plan = solve(chain_system(100), cache=PlanCache()).plan
        assert plan.strategy == "chains"
        payload = plan_to_dict(plan)
        assert "chains" in payload and "steps" not in payload
        path = self.write_plan(tmp_path, plan, "chains.json")
        assert main(["check", path]) == 0
        assert "OK" in capsys.readouterr().out
        bad = mutate_plan(plan, "chain_swap_order", seed=0).plan
        path = self.write_plan(tmp_path, bad, "bad-chains.json")
        assert main(["check", path, "--json"]) == 8
        report = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in report["findings"]] == ["CHN003"]

    @pytest.mark.parametrize(
        "kind, code",
        [("gir_swap_cells", "GIR006"), ("gir_truncate_rowptr", "GIR006")],
    )
    def test_check_random_gir_plan_file(self, tmp_path, capsys, kind, code):
        # int64 exponents (matrix CAP, no dict rows) through JSON and
        # the checker; a mutated table exits 8
        plan = solve(
            random_gir_system(3000, extra_cells=3000, seed=5), cache=PlanCache()
        ).plan
        assert plan.table.exponents.dtype == np.int64
        path = self.write_plan(tmp_path, plan, "gir.json")
        assert main(["check", path]) == 0
        assert "OK" in capsys.readouterr().out
        bad = mutate_plan(plan, kind, seed=1).plan
        path = self.write_plan(tmp_path, bad, "bad-gir.json")
        assert main(["check", path, "--json"]) == 8
        report = json.loads(capsys.readouterr().out)
        assert code in [f["code"] for f in report["findings"]]

    def test_check_proves_system_files_end_to_end(self, tmp_path, capsys):
        path = str(tmp_path / "system.json")
        dump_system(chain_system(64, op=FLOAT_MUL), path)
        assert main(["check", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["checks_run"] > 0

    def test_check_rejects_garbage_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"hello": 1}))
        assert main(["check", str(path)]) == 2

    def test_lint_reports_codes_as_json(self, tmp_path, capsys):
        path = tmp_path / "loops.py"
        path.write_text(
            "def k(X, Y, Z):\n"
            "    for i in range(1, 50):\n"
            "        X[i] = X[i - 1] * Y[i]\n"
            "    for i in range(3, 50):\n"
            "        Z[i] = Z[i - 1] + Z[i - 2] + Z[i - 3]\n"
        )
        assert main(["lint", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        found = {f["code"] for f in report["findings"]}
        assert {"IR000", "IR001"} <= found

    def test_lint_consts_flag(self, tmp_path, capsys):
        path = tmp_path / "loops.py"
        path.write_text(
            "def k(X, Y):\n"
            "    for i in range(1, n):\n"
            "        X[i] = X[i - 1] * Y[i]\n"
        )
        assert main(["lint", str(path), "--const", "n=40"]) == 0
        assert main(["lint", str(path), "--const", "nonsense"]) == 2

    def test_solve_verify_flag(self, tmp_path):
        path = str(tmp_path / "system.json")
        dump_system(chain_system(32, op=FLOAT_MUL), path)
        assert main(["solve", path, "--verify"]) == 0


class TestSurface:
    def test_explicit_all_lists_resolve(self):
        # The dir()-built __all__ lists were replaced by explicit ones;
        # every exported name must actually exist.
        import importlib

        for mod_name in (
            "repro",
            "repro.check",
            "repro.core",
            "repro.analysis",
            "repro.loops",
            "repro.livermore",
            "repro.pram",
        ):
            mod = importlib.import_module(mod_name)
            missing = [n for n in mod.__all__ if not hasattr(mod, n)]
            assert not missing, f"{mod_name}.__all__ dangles: {missing}"

    def test_check_package_exports_the_three_layers(self):
        import repro.check as check

        for name in (
            "verify_plan",
            "verify_or_raise",
            "check_system",
            "lint_source",
            "mutation_campaign",
            "Finding",
            "CheckReport",
            "FINDING_CODES",
        ):
            assert name in check.__all__ and hasattr(check, name)
