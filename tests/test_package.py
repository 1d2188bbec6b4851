"""The package surface: exported names, and what importing it loads."""

from __future__ import annotations

import pytest

import lieconserve
from conftest import fresh_python

NUMERIC_NAMES = [
    "CharacteristicSolution", "CharacteristicsError", "ConservationReport",
    "InitialProfile", "conserved_integral", "gaussian_profile",
    "polynomial_profile", "shock_time", "sine_profile",
    "spline_bump_profile", "verify_law",
]


def test_every_exported_name_resolves():
    missing = [n for n in lieconserve.__all__ if not hasattr(lieconserve, n)]
    assert missing == []
    assert set(NUMERIC_NAMES) <= set(lieconserve.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from lieconserve import *", namespace)
    assert set(lieconserve.__all__) <= set(namespace)
    assert namespace["verify_law"] is lieconserve.characteristics.verify_law


def test_dir_lists_the_numeric_names():
    assert set(NUMERIC_NAMES) <= set(dir(lieconserve))


def test_unknown_attributes_raise_attribute_error():
    with pytest.raises(AttributeError):
        lieconserve.no_such_name
    assert not hasattr(lieconserve, "np")


def test_importing_the_package_does_not_import_numpy():
    # numpy is imported by the numeric functions on first use
    proc = fresh_python("-c", "import sys, lieconserve\n"
                              "lieconserve.CharacteristicSolution\n"
                              "print(sorted(m for m in sys.modules\n"
                              "             if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
