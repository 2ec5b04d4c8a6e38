"""Closed forms: Theorem 1, Table 1, Table 2, Eq. 1."""


import pytest

from repro.repair import theory
from repro.repair.plan import scheme


def test_theorem1_timesteps():
    assert theory.ppr_timesteps(3) == 2
    assert theory.ppr_timesteps(6) == 3
    assert theory.ppr_timesteps(7) == 3  # 8 leaves, exact power of two
    assert theory.ppr_timesteps(8) == 4
    assert theory.ppr_timesteps(12) == 4


def test_theorem1_times():
    C, B = 64e6, 125e6
    assert scheme("star").steps(6) * C / B == pytest.approx(6 * C / B)
    assert scheme("ppr").steps(6) * C / B == pytest.approx(3 * C / B)


def test_table1_matches_paper():
    """Every row of Table 1 reproduced to within rounding."""
    for row in theory.table1():
        paper_net, paper_bw = theory.TABLE1_PAPER[(row.k, row.m)]
        assert row.network_transfer_reduction == pytest.approx(
            paper_net, abs=0.005
        ), (row.k, row.m)
        assert row.per_server_bw_reduction == pytest.approx(
            paper_bw, abs=0.005
        ), (row.k, row.m)


def test_reduction_grows_with_k():
    """§4.2: the gain increases with k (why large k becomes viable)."""
    values = [theory.transfer_time_reduction(k) for k in (3, 6, 12, 24, 48)]
    assert values == sorted(values)


def test_power_of_two_minus_one_best_case():
    """k = 2^n - 1 gives the Omega(2^n / n) reduction factor."""
    k = 15
    assert theory.ppr_timesteps(k) == 4
    assert theory.transfer_time_reduction(k) == pytest.approx(1 - 4 / 15)


def test_memory_footprint():
    C = 64e6
    assert theory.memory_footprint_traditional(12, C) == 12 * C
    assert theory.memory_footprint_ppr(12, C) == 4 * C


def test_eq1_reconstruction_estimate():
    C, BI, BN = 64e6, 100e6, 125e6
    t = theory.reconstruction_time_estimate(6, C, BI, BN, 0.0)
    assert t == pytest.approx(C / BI + 6 * C / BN)


def test_table2_critical_path():
    trad = theory.critical_path_traditional(12)
    ppr = theory.critical_path_ppr(12)
    assert trad.gf_multiplications == 12 and trad.xor_operations == 12
    assert ppr.gf_multiplications == 1 and ppr.xor_operations == 4


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        theory.ppr_timesteps(0)
    with pytest.raises(ValueError):
        theory.per_server_bandwidth_reduction(1)


# ----------------------------------------------------------------------
# Regenerating-code cut-set bounds and the generalized Eq. (1)
# ----------------------------------------------------------------------


def test_msr_cut_set_bound():
    assert theory.msr_repair_traffic(6, 8) == pytest.approx(8 / 3)
    assert theory.msr_repair_traffic(6, 6) == pytest.approx(6.0)  # = RS
    # Monotone improvement in d, always below k for d > k.
    for d in (7, 8, 10):
        assert theory.msr_repair_traffic(6, d) < 6.0
    with pytest.raises(ValueError):
        theory.msr_repair_traffic(6, 5)
    with pytest.raises(ValueError):
        theory.msr_repair_traffic(0, 4)


def test_mbr_cut_set_bound():
    gamma = theory.mbr_repair_traffic(6, 8)
    assert gamma == pytest.approx(16 / 11)
    assert gamma < theory.msr_repair_traffic(6, 8)
    # MBR's defining tradeoff: alpha = gamma > 1.
    assert theory.mbr_storage_per_chunk(6, 8) == pytest.approx(gamma)
    assert theory.mbr_storage_per_chunk(6, 8) > 1.0
    with pytest.raises(ValueError):
        theory.mbr_repair_traffic(6, 5)


def test_scheme_transfer_steps():
    for name in ("traditional", "star", "staggered"):
        assert scheme(name).steps(6) == 6.0
    assert scheme("ppr").steps(6) == 3.0
    assert scheme("mppr").steps(6) == 3.0
    assert scheme("chain").steps(6) == 6.0  # S = 1
    assert scheme("chain").steps(6, num_slices=8) == pytest.approx(13 / 8)
    with pytest.raises(ValueError):
        scheme("warp").steps(6)
    with pytest.raises(ValueError):
        scheme("ppr").steps(0)
    with pytest.raises(ValueError):
        theory.transfer_steps(3, 3, num_slices=0)


def test_model_reconstruction_time_reduces_to_eq1():
    C, BI, BN, COMP = 64e6, 120e6, 125e6, 2.5e-10
    k = 6
    # helpers = traffic = k: exactly the RS forms.
    assert theory.model_reconstruction_time(
        scheme("star").steps(k), k, float(k), C, BI, BN, COMP
    ) == theory.reconstruction_time_estimate(k, C, BI, BN, COMP)
    assert theory.model_reconstruction_time(
        scheme("ppr").steps(k), k, float(k), C, BI, BN, COMP
    ) == theory.ppr_reconstruction_time_estimate(k, C, BI, BN, COMP)


def test_model_reconstruction_time_scales_with_traffic():
    C, BI, BN, COMP = 64e6, 120e6, 125e6, 2.5e-10
    star = scheme("star")
    rs = theory.model_reconstruction_time(
        star.steps(6), 6, 6.0, C, BI, BN, COMP
    )
    msr = theory.model_reconstruction_time(
        star.steps(8), 8, theory.msr_repair_traffic(6, 8), C, BI, BN, COMP
    )
    assert msr < rs
    with pytest.raises(ValueError):
        theory.model_reconstruction_time(
            star.steps(6), 6, 0.0, C, BI, BN, COMP
        )
