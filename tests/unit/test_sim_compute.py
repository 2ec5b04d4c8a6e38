"""GF compute-time model."""


import pytest

from repro.errors import ConfigurationError
from repro.sim.compute import JERASURE_PROFILE, ComputeModel


def test_multiply_time_scales_with_bytes():
    model = ComputeModel(dispatch_overhead=0.0)
    assert model.multiply_time(2e9) == pytest.approx(
        2 * model.multiply_time(1e9)
    )


def test_xor_faster_than_multiply():
    model = ComputeModel()
    assert model.xor_time(1e9) < model.multiply_time(1e9)


def test_inversion_cubic():
    model = ComputeModel()
    assert model.inversion_time(12) == pytest.approx(
        model.inversion_coeff * 12 ** 3
    )


def test_table2_critical_path_times():
    """PPR's compute critical path beats traditional for all k > 1."""
    model = ComputeModel()
    C = 64e6
    for k in (3, 6, 8, 10, 12):
        trad = model.traditional_decode_time(k, C)
        ppr = model.ppr_critical_path_time(k, C)
        assert ppr < trad
        # Ratio grows with k (paper Fig. 7f observation).
    r6 = model.traditional_decode_time(6, C) / model.ppr_critical_path_time(6, C)
    r12 = model.traditional_decode_time(12, C) / model.ppr_critical_path_time(12, C)
    assert r12 > r6


def test_profiles_exist():
    assert JERASURE_PROFILE == ComputeModel()


def test_invalid_bandwidth_rejected():
    with pytest.raises(ConfigurationError):
        ComputeModel(mul_bandwidth=0)
