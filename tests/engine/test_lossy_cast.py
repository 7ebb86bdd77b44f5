"""The front door rejects lossy casts: a non-integral, non-finite or
out-of-range value meeting an int64 operator raises
``IRValidationError`` (exit code 3) on every backend and path instead
of being truncated by the NumPy cast or silently computed in floats by
the Python kernels."""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.core import ADD, MUL, FLOAT_ADD, OrdinaryIRSystem
from repro.core.serialize import dump_system
from repro.engine import EngineOptions, Session, solve, solve_batch
from repro.engine.planner import PlanCache
from repro.errors import IRValidationError, exit_code_for

N = 3


def chain(values, op=ADD):
    return OrdinaryIRSystem.build(values, np.arange(1, N + 1), np.arange(N), op)


def run_path(path, values, op):
    system = chain([0] * (N + 1), op)
    if path.startswith("solve:"):
        return solve(
            chain(values, op),
            cache=PlanCache(),
            options=EngineOptions(backend=path.split(":")[1]),
        ).values
    if path == "solve_batch":
        return solve_batch(system, [values, [0] * (N + 1)], cache=PlanCache())
    if path == "session":
        return Session(system).solve(values).values
    if path == "session_batch":
        return Session(system).solve_batch([[0] * (N + 1), values])
    if path == "f_initial":
        return solve(system, cache=PlanCache(), f_initial=values).values
    raise AssertionError(path)


PATHS = (
    "solve:numpy",
    "solve:python",
    "solve:pram",
    "solve_batch",
    "session",
    "session_batch",
    "f_initial",
)
LOSSY = (
    [0.5, 1.5, 2.5, 0],
    [0, 1, math.inf, 2],
    [0, math.nan, 1, 2],
    [0, 1e19, 1, 2],  # integral, but beyond int64
    [0, 2**63, 1, 2],  # one past int64's maximum
    [0, 2**70, 1, 2],  # an object-dtype Python int
    [0, -(2**64), 1, 2],
    np.array([0, 2**63, 1, 2], dtype=np.uint64),  # would wrap to -2**63
)


@pytest.mark.parametrize("op", [ADD, MUL], ids=lambda op: op.name)
@pytest.mark.parametrize(
    "values",
    LOSSY,
    ids=[
        "fraction",
        "inf",
        "nan",
        "huge",
        "int64_max_plus_1",
        "bigint",
        "negative_bigint",
        "uint64",
    ],
)
@pytest.mark.parametrize("path", PATHS)
def test_lossy_cast_rejected(path, values, op):
    with pytest.raises(IRValidationError) as info:
        run_path(path, values, op)
    assert exit_code_for(info.value) == 3
    assert op.name in str(info.value)


@pytest.mark.parametrize("path", PATHS)
def test_integral_floats_are_admitted(path):
    row = run_path(path, [1.0, 2.0, 3.0, 4.0], ADD)
    if path.endswith("batch"):
        row = row[0] if path == "solve_batch" else row[1]
    if path == "f_initial":
        assert row == [0, 1, 1, 1]  # f reads 1.0 only at the terminal
    else:
        assert row == [1, 3, 6, 10]


def test_float_operator_keeps_float_data():
    assert solve(chain([0.5, 1.5, 2.5, 0], FLOAT_ADD)).values == [0.5, 2.0, 4.5, 4.5]


def test_cli_exits_3(tmp_path, capsys):
    path = tmp_path / "lossy.json"
    dump_system(chain([0.5, 1.5, 2.5, 0]), str(path))
    assert main(["solve", str(path), "--json"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "IRValidationError" and "int64" in error["message"]
    assert main(["solve", str(path)]) == 3
