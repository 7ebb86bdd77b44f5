"""The ``verify_plan=`` opt-in seam (solve / execute / Session), the
``repro check`` / ``repro lint`` CLI verbs, and the package surface.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.check import mutate_plan, verify_plan
from repro.cli import main
from repro.core import ADD, FLOAT_MUL, OrdinaryIRSystem
from repro.core.serialize import dump_system
from repro.core.workloads import (
    chain_system,
    fibonacci_gir_system,
    random_ordinary_system,
    random_gir_system,
)
from repro.engine import EngineOptions, Session, execute, solve
from repro.engine.plan import plan_from_dict, plan_to_dict
from repro.engine.planner import PlanCache
from repro.engine.problem import Problem
from repro.errors import PlanVerificationError

from ..engine.test_level_parity import affine_forest


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
        good.round_steps(system.g, system.f)  # a rounds consumer built pred
        bad = mutate_plan(good, "corrupt_pred", seed=0).plan
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
        good.round_steps(system.g, system.f)  # a rounds consumer built pred
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
        # two chains whose strides alternate 1 and 3: deeper than 62 and
        # cut into short runs, so a rounds plan (its pred alone)
        n = 400
        idx = np.arange(n)
        f = np.where(idx % 2 == 1, idx - 1, idx - 3)
        f[[0, 2]] = n
        zigzag = OrdinaryIRSystem.build([1] * (n + 1), idx, f, ADD)
        plan = solve(zigzag, cache=PlanCache()).plan
        assert plan.strategy == "rounds"
        payload = plan_to_dict(plan)
        assert "pred" in payload and "steps" not in payload
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        payload["pred"][7] = 7  # points forward: a cycle, no loop trace
        path.write_text(json.dumps(payload))
        assert main(["check", str(path), "--json"]) == 8
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        errors = [f["code"] for f in report["findings"] if f["severity"] == "error"]
        assert errors == ["SCH005"]
        [skipped] = [f for f in report["findings"] if f["code"] == "GIR014"]
        assert "SCH006 not run" in skipped["message"]

    def test_check_refuses_a_plan_of_another_schema(self, tmp_path, capsys):
        """A v1 chain plan stored a permutation; the current schema stores
        runs and refuses the old payload with a clean exit 2, not a
        traceback."""
        payload = plan_to_dict(solve(chain_system(100), cache=PlanCache()).plan)
        payload["schema_version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        assert main(["check", str(path)]) == 2
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, version",
        [
            (chain_system(100), 2),
            (random_gir_system(64), 99),
            (random_ordinary_system(300), 3),
            (random_ordinary_system(300), 4),
            (random_ordinary_system(300), 5),
            (random_ordinary_system(300), 6),
            (random_gir_system(64), 3),
        ],
        ids=[
            "chain-v2",
            "gir-levels-v99",
            "levels-v3",
            "levels-v4",
            "levels-v5",
            "levels-v6",
            "gir-levels-v3",
        ],
    )
    def test_check_refuses_other_schema_versions(
        self, tmp_path, capsys, system, version
    ):
        """A plan payload of any other schema version -- a v2 level plan
        had other field names -- is refused with a clean exit 2, not a
        traceback, in every family."""
        plan = solve(system, cache=PlanCache()).plan
        assert plan.strategy in ("chains", "levels")
        payload = plan_to_dict(plan)
        payload["schema_version"] = version
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert main(["check", str(path)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_check_chain_plan_file(self, tmp_path, capsys):
        plan = solve(chain_system(100), cache=PlanCache()).plan
        assert plan.strategy == "chains"
        payload = plan_to_dict(plan)
        assert "steps" not in payload and "g" not in payload and "f" not in payload
        assert payload["levels"]["offsets"] == [0, 100]  # one run
        path = self.write_plan(tmp_path, plan, "chains.json")
        assert main(["check", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        [skipped] = [f for f in report["findings"] if f["code"] == "GIR014"]
        assert "LVL004, LVL005 not run" in skipped["message"]
        bad = mutate_plan(plan, "level_duplicate_write", seed=0).plan
        path = self.write_plan(tmp_path, bad, "bad-chains.json")
        assert main(["check", path, "--json"]) == 8
        report = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in report["findings"] if f["severity"] == "error"] == [
            "LVL001"
        ]

    def test_check_a_one_range_chain_plan_file(self, tmp_path, capsys):
        """A contiguous chain's file stores its first cell, not ``n``
        write cells; a start whose range leaves the ``m`` cells exits 8
        with LVL001, with or without the system."""
        system = chain_system(100)
        plan = solve(system, cache=PlanCache()).plan
        payload = plan_to_dict(plan)
        assert payload["levels"]["start"] == plan.levels.start
        assert "write" not in payload["levels"]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(payload))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        for start in (plan.m - 99, plan.m, -1, 2**70):
            payload["levels"]["start"] = start
            path.write_text(json.dumps(payload))
            assert main(["check", str(path), "--json"]) == 8, start
            report = json.loads(capsys.readouterr().out)
            errors = [f["code"] for f in report["findings"] if f["severity"] == "error"]
            assert errors == ["LVL001"], (start, errors)
            edited = plan_from_dict(payload)
            assert verify_plan(edited, system=system).codes() == ["LVL001"]

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
        assert main(["check", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        # past 2048 rows the table's oracle is GIR007 / GIR008, not GIR004
        [skipped] = [f for f in report["findings"] if f["code"] == "GIR014"]
        assert "GIR013, LVL004, GIR007, GIR008, GIR009 not run" in skipped["message"]
        bad = mutate_plan(plan, kind, seed=1).plan
        path = self.write_plan(tmp_path, bad, "bad-gir.json")
        assert main(["check", path, "--json"]) == 8
        report = json.loads(capsys.readouterr().out)
        assert code in [f["code"] for f in report["findings"]]

    def test_check_warns_a_gir_plan_file_skips_its_system_rules(
        self, tmp_path, capsys
    ):
        """A GIR level plan file carries no system, so LVL004 and GIR013
        cannot run: a read re-pointed at another leaf passes the rules
        that do run (exit 0), and the report says which rules it
        skipped and where to run them."""
        system = random_gir_system(300)
        plan = solve(system, cache=PlanCache()).plan
        assert plan.strategy == "levels" and not plan.has_table
        bad = mutate_plan(plan, "level_retarget_read", seed=0).plan
        assert verify_plan(bad, system=system).codes() == ["LVL004"]
        for name, subject in (("gir.json", plan), ("bad-gir.json", bad)):
            path = self.write_plan(tmp_path, subject, name)
            assert main(["check", path, "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["ok"] is True
            [skipped] = [f for f in report["findings"] if f["code"] == "GIR014"]
            assert skipped["severity"] == "warning"
            assert "GIR013, LVL004 not run" in skipped["message"]
            assert "repro check SYSTEM.json" in skipped["hint"]

    @pytest.mark.parametrize(
        "system",
        [random_ordinary_system(400), affine_forest(400)],
        ids=["ordinary", "moebius"],
    )
    def test_check_warns_a_level_plan_file_skips_lvl004(
        self, tmp_path, capsys, system
    ):
        """An ordinary or Moebius level plan file holds its layout and no
        maps: the layout rules run (a duplicated write exits 8), and the
        report names LVL004 as not run."""
        plan = solve(system, cache=PlanCache()).plan
        assert plan.strategy == "levels" and "g" not in plan_to_dict(plan)
        path = self.write_plan(tmp_path, plan, "levels.json")
        assert main(["check", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        [skipped] = [f for f in report["findings"] if f["code"] == "GIR014"]
        assert skipped["severity"] == "warning" and skipped["where"] == plan.family
        assert "LVL004 not run" in skipped["message"]
        bad = mutate_plan(plan, "level_duplicate_write", seed=0).plan
        path = self.write_plan(tmp_path, bad, "bad-levels.json")
        assert main(["check", path, "--json"]) == 8
        report = json.loads(capsys.readouterr().out)
        assert "LVL001" in [f["code"] for f in report["findings"]]

    def test_check_proves_a_moebius_system_file_with_its_plan(self, tmp_path, capsys):
        from repro.check import check_system

        rec = affine_forest(300)
        path = str(tmp_path / "affine.json")
        dump_system(rec, path)
        assert main(["check", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        # the preconditions, then the plan, verified against the system
        assert report["checks_run"] > check_system(rec).checks_run

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
