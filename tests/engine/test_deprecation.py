"""Removed legacy entry points: every ``repro.core`` solver shim is
gone -- looking one up is a plain ``AttributeError``."""

import pytest

import repro
import repro.core
import repro.core.gir
import repro.core.moebius
import repro.core.ordinary

REMOVED = [
    "solve_ordinary",
    "solve_ordinary_numpy",
    "solve_gir",
    "solve_moebius",
    "solve_affine_numpy",
    "solve_rational_numpy",
]

HOME_MODULE = {
    "solve_ordinary": repro.core.ordinary,
    "solve_ordinary_numpy": repro.core.ordinary,
    "solve_gir": repro.core.gir,
    "solve_moebius": repro.core.moebius,
    "solve_affine_numpy": repro.core.moebius,
    "solve_rational_numpy": repro.core.moebius,
}


class TestPackageTombstones:
    @pytest.mark.parametrize("name", REMOVED)
    def test_core_attribute_gone(self, name):
        with pytest.raises(AttributeError):
            getattr(repro.core, name)

    @pytest.mark.parametrize("name", REMOVED)
    def test_home_module_attribute_gone(self, name):
        with pytest.raises(AttributeError):
            getattr(HOME_MODULE[name], name)

    # the two fast-path wrappers were never re-exported at the root
    @pytest.mark.parametrize("name", REMOVED[:4])
    def test_root_package_names_both_removals(self, name):
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_unknown_attribute_is_plain_error(self):
        with pytest.raises(AttributeError) as exc:
            repro.core.no_such_thing
        assert "no attribute" in str(exc.value)
        assert "repro.engine" not in str(exc.value)

    def test_star_import_surface_excludes_solvers(self):
        exported = set(repro.core.__all__)
        assert not exported & set(REMOVED)

    def test_version_reflects_removal(self):
        assert repro.__version__ == "1.2.0"


class TestImportErrors:
    """``from repro.core import solve_x`` must fail at import time, not
    silently bind a tombstone."""

    @pytest.mark.parametrize("name", REMOVED)
    def test_from_import_raises(self, name):
        with pytest.raises(ImportError):
            exec(f"from repro.core import {name}")
