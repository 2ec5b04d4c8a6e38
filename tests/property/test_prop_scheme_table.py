"""The scheme table cannot drift from the plans it builds.

Every row of :data:`repro.repair.plan.SCHEMES` that has a builder is
checked against the plan it actually builds, for every helper count the
reproduction's codes use (k in 1..16); the pricing-only rows are checked
against the plan rows they price as.
"""

import math

import pytest

from repro.codes.recipe import whole_chunk_recipe
from repro.repair.plan import DESTINATION, SCHEMES, STRATEGIES, scheme

HELPER_COUNTS = range(1, 17)
SLICE_COUNTS = (1, 2, 3, 8, 16, 64)
C, B = 64e6, 125e6


def recipe_with_k(k):
    return whole_chunk_recipe(0, {i + 1: (i % 255) + 1 for i in range(k)})


def serialized_transfers(plan):
    """Transfers serialized on the plan's critical path: star's one step
    funnels every transfer into the destination's ingress; every other
    plan serializes one transfer per step."""
    if plan.strategy == "star":
        return len(plan.incoming(DESTINATION))
    return plan.num_steps


@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize("k", HELPER_COUNTS)
def test_row_matches_built_plan(name, k):
    row = scheme(name, buildable=True)
    plan = row.build(recipe_with_k(k))
    assert plan.strategy == name
    assert row.steps(k) == serialized_transfers(plan)
    assert row.depth(k) == plan.num_steps
    assert row.fanin(k) == len(plan.incoming(DESTINATION))


@pytest.mark.parametrize("k", HELPER_COUNTS)
def test_chain_steps_price_the_pipelined_plan(k):
    chain = scheme("chain")
    plan = chain.build(recipe_with_k(k))
    for slices in SLICE_COUNTS:
        # A chain's ingress carries one chunk, so the wave term binds.
        wave = (plan.num_steps + slices - 1) * C / (slices * B)
        assert wave >= plan.max_ingress_bytes(C) / B
        assert math.isclose(
            chain.steps(k, slices) * C / B,
            plan.estimate_pipelined_transfer_time(C, B, slices),
            rel_tol=1e-12,
        )


@pytest.mark.parametrize("alias,plan_row", [("traditional", "star"),
                                            ("mppr", "ppr")])
def test_pricing_only_rows_price_as_their_plan_row(alias, plan_row):
    a, p = scheme(alias), scheme(plan_row)
    assert a.build is None
    with pytest.raises(ValueError):
        scheme(alias, buildable=True)
    for k in HELPER_COUNTS:
        assert a.fanin(k) == p.fanin(k)
        for slices in SLICE_COUNTS:
            assert a.steps(k, slices) == p.steps(k, slices)
    assert a.law == p.law


def test_strategies_are_the_rows_with_a_plan():
    assert STRATEGIES == ("star", "staggered", "ppr", "chain")
    assert set(SCHEMES) == set(STRATEGIES) | {"traditional", "mppr"}
