"""Spec-string code construction."""

import pytest

from repro.errors import ConfigurationError
from repro.codes import registry
from repro.codes import (
    CauchyReedSolomonCode,
    LocalReconstructionCode,
    ReedSolomonCode,
    available_codes,
    make_code,
    register_code,
)


def test_make_rs():
    code = make_code("rs(6,3)")
    assert isinstance(code, ReedSolomonCode)
    assert (code.k, code.m) == (6, 3)


def test_make_with_dashes_and_case():
    code = make_code("RS-10-4")
    assert (code.k, code.m) == (10, 4)


def test_make_lrc():
    code = make_code("lrc(12,2,2)")
    assert isinstance(code, LocalReconstructionCode)
    assert code.n == 16


def test_make_rotrs_with_optional_r():
    assert make_code("rotrs(12,4)").r == 4
    assert make_code("rotrs(12,4,2)").r == 2


def test_make_rep():
    assert make_code("rep(3)").n == 3


def test_unknown_family():
    with pytest.raises(ConfigurationError):
        make_code("raptor(10,2)")


def test_unparseable():
    with pytest.raises(ConfigurationError):
        make_code("6,3")


def test_available_codes_lists_families():
    names = available_codes()
    for family in ("rs", "crs", "lrc", "rotrs", "rep"):
        assert family in names


@pytest.fixture
def restored_registry():
    """Put the global family table back as it was, so a family registered
    here leaks into no later test."""
    saved = dict(registry._FACTORIES)
    yield
    registry._FACTORIES.clear()
    registry._FACTORIES.update(saved)
    make_code.cache_clear()


def test_register_custom(restored_registry):
    register_code("myrs", ReedSolomonCode)
    assert isinstance(make_code("myrs(4,2)"), ReedSolomonCode)


def test_make_code_shares_one_instance_per_spec():
    assert make_code("rs(6,3)") is make_code("rs(6,3)")
    assert make_code("rs(6,3)") is not make_code("rs(4,2)")


def test_register_code_replaces_a_family(restored_registry):
    register_code("swapped", ReedSolomonCode)
    assert type(make_code("swapped(4,2)")) is ReedSolomonCode
    register_code("swapped", CauchyReedSolomonCode)
    assert type(make_code("swapped(4,2)")) is CauchyReedSolomonCode
