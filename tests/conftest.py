"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core import GIRSystem, OrdinaryIRSystem
from repro.core.operators import CONCAT, modular_add, modular_mul


def approx_list(a, b, rel=1e-9, abs_=1e-12):
    """Elementwise closeness for numeric lists (inf-aware)."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, float) or isinstance(y, float):
            assert x == pytest.approx(y, rel=rel, abs=abs_), (x, y)
        else:
            assert x == y


# ---------------------------------------------------------------------------
# Hypothesis strategies for random IR systems
# ---------------------------------------------------------------------------


@st.composite
def ordinary_systems(draw, max_n: int = 24, max_extra: int = 12):
    """A random OrdinaryIR system over the tuple-concatenation monoid.

    CONCAT is associative but *not* commutative, so any operand
    reordering in a solver shows up as a hard mismatch.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    m = n + draw(st.integers(min_value=0, max_value=max_extra))
    if n > 0 and m == 0:
        m = n
    perm = draw(st.permutations(list(range(m))))
    g = list(perm[:n])
    f = [draw(st.integers(min_value=0, max_value=max(m - 1, 0))) for _ in range(n)]
    initial = [(f"s{j}",) for j in range(m)]
    return OrdinaryIRSystem.build(initial, g, f, CONCAT) if m else OrdinaryIRSystem.build([], [], [], CONCAT)


@st.composite
def gir_systems(draw, max_n: int = 20, max_extra: int = 10, distinct_g: bool = True):
    """A random GIR system over addition mod 97 (commutative, exactly
    representable, atomic powers)."""
    op = modular_add(97)
    n = draw(st.integers(min_value=0, max_value=max_n))
    extra = draw(st.integers(min_value=1, max_value=max_extra))
    if distinct_g:
        m = n + extra
        perm = draw(st.permutations(list(range(m))))
        g = list(perm[:n])
    else:
        m = max(extra, 1)
        g = [draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(n)]
    f = [draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(n)]
    h = [draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(n)]
    initial = [draw(st.integers(min_value=0, max_value=96)) for _ in range(m)]
    return GIRSystem.build(initial, g, f, h, op)


@st.composite
def fraction_values(draw, max_num: int = 6, max_den: int = 4):
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_den))
    return Fraction(num, den)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Isolate tests from the engine's process-wide plan cache.

    Span-shape and stats assertions expect *planning* solves; a plan
    cached by an earlier test (same index maps) would skip the planning
    phases and change what they observe.
    """
    from repro.engine import clear_plan_cache

    clear_plan_cache()
    yield
    clear_plan_cache()
