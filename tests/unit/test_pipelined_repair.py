"""Chain plans and sliced (pipelined) repair — the follow-on extension."""

import numpy as np
import pytest

from repro.codes import ReedSolomonCode, RotatedReedSolomonCode
from repro.core.single_repair import run_degraded_read, run_single_repair
from repro.fs.cluster import StorageCluster
from repro.repair import theory
from repro.repair.executor import execute_plan
from repro.repair.plan import DESTINATION, build_chain_plan, build_plan

from tests.conftest import random_stripe


def rs_recipe(k=6, m=3, lost=0):
    code = ReedSolomonCode(k, m)
    return code.repair_recipe(lost, set(range(k + m)) - {lost})


# ----------------------------------------------------------------------
# Chain plan structure
# ----------------------------------------------------------------------
def test_chain_is_a_path_to_destination():
    recipe = rs_recipe()
    plan = build_chain_plan(recipe)
    assert plan.num_steps == 6
    helpers = list(recipe.helpers)
    for step, transfer in enumerate(sorted(plan.transfers, key=lambda t: t.step)):
        assert transfer.src == helpers[step]
        expected_dst = helpers[step + 1] if step < 5 else DESTINATION
        assert transfer.dst == expected_dst


def test_chain_executes_correctly(any_code, rng):
    code = any_code
    _, encoded = random_stripe(code, rng, 16 * code.rows)
    for lost in (0, code.n - 1):
        available = {i: encoded[i] for i in range(code.n) if i != lost}
        recipe = code.repair_recipe(lost, available.keys())
        plan = build_plan("chain", recipe)
        assert np.array_equal(execute_plan(plan, available), encoded[lost])


def test_chain_max_ingress_is_one_chunk():
    """Every link in the chain carries at most one (partial) chunk."""
    plan = build_chain_plan(rs_recipe(12, 4))
    assert plan.max_ingress_bytes(1.0) <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# Pipelined time estimates
# ----------------------------------------------------------------------
def test_pipelined_estimate_formula():
    plan = build_chain_plan(rs_recipe(12, 4))
    C, B = 64e6, 125e6
    for s in (1, 4, 32):
        est = plan.estimate_pipelined_transfer_time(C, B, s)
        assert est == pytest.approx(theory.transfer_steps(12, 1, s) * C / B)


def test_pipelining_approaches_single_chunk_time():
    plan = build_chain_plan(rs_recipe(12, 4))
    C, B = 64e6, 125e6
    assert plan.estimate_pipelined_transfer_time(C, B, 1000) == pytest.approx(
        C / B, rel=0.02
    )


def test_more_slices_never_slower_in_estimate():
    plan = build_chain_plan(rs_recipe(12, 4))
    C, B = 64e6, 125e6
    estimates = [
        plan.estimate_pipelined_transfer_time(C, B, s)
        for s in (1, 2, 4, 8, 16)
    ]
    assert estimates == sorted(estimates, reverse=True)


def test_theory_pipelined_validation():
    with pytest.raises(ValueError):
        theory.transfer_steps(0, 1, 4)
    with pytest.raises(ValueError):
        theory.transfer_steps(4, 1, 0)


# ----------------------------------------------------------------------
# End-to-end sliced repairs on the cluster
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy,slices", [
    ("ppr", 4), ("ppr", 8), ("chain", 4), ("chain", 16),
])
def test_sliced_repair_verifies(strategy, slices):
    cluster = StorageCluster.smallsite()
    stripe = cluster.write_stripe(ReedSolomonCode(6, 3), "64MiB")
    result = run_single_repair(
        cluster, stripe, 0, strategy=strategy, num_slices=slices
    )
    assert result.verified


def test_sliced_repair_on_subchunk_code():
    cluster = StorageCluster.smallsite()
    stripe = cluster.write_stripe(RotatedReedSolomonCode(12, 4, r=4), "64MiB")
    result = run_single_repair(
        cluster, stripe, 0, strategy="chain", num_slices=8
    )
    assert result.verified


def test_chain_unsliced_is_slow_sliced_is_fast():
    durations = {}
    for slices in (1, 16):
        cluster = StorageCluster.smallsite()
        stripe = cluster.write_stripe(ReedSolomonCode(12, 4), "64MiB")
        durations[slices] = run_single_repair(
            cluster, stripe, 0, strategy="chain", num_slices=slices
        ).duration
    assert durations[16] < durations[1] / 2


def test_pipelined_chain_beats_plain_ppr():
    """The repair-pipelining headline: a sliced chain beats the tree."""
    cluster = StorageCluster.smallsite()
    stripe = cluster.write_stripe(ReedSolomonCode(12, 4), "64MiB")
    ppr = run_single_repair(cluster, stripe, 0, strategy="ppr")

    cluster2 = StorageCluster.smallsite()
    stripe2 = cluster2.write_stripe(ReedSolomonCode(12, 4), "64MiB")
    chain = run_single_repair(
        cluster2, stripe2, 0, strategy="chain", num_slices=32
    )
    assert chain.duration < ppr.duration


def test_sliced_degraded_read():
    cluster = StorageCluster.smallsite()
    stripe = cluster.write_stripe(ReedSolomonCode(6, 3), "64MiB")
    result = run_degraded_read(
        cluster, stripe, 0, strategy="chain", num_slices=16
    )
    assert result.verified
    assert result.kind == "degraded_read"


def test_slices_exceeding_payload_rows_still_verify():
    """More slices than bytes-per-row: empty slices must be harmless."""
    cluster = StorageCluster.smallsite(payload_bytes=256)
    stripe = cluster.write_stripe(ReedSolomonCode(4, 2), "8MiB")
    result = run_single_repair(
        cluster, stripe, 0, strategy="chain", num_slices=64
    )
    assert result.verified
