"""Repair plans: star, staggered, and the PPR binomial tree."""

import math

import pytest

from repro.errors import PlanError
from repro.codes.recipe import whole_chunk_recipe
from repro.codes.rs import ReedSolomonCode
from repro.repair.plan import (
    DESTINATION,
    build_plan,
    build_ppr_plan,
    build_staggered_plan,
    build_star_plan,
)
from repro.repair.theory import ppr_timesteps


def rs_recipe(k=3, m=2, lost=0):
    code = ReedSolomonCode(k, m)
    return code.repair_recipe(lost, set(range(k + m)) - {lost})


def test_star_single_step_all_to_destination():
    plan = build_star_plan(rs_recipe(6, 3))
    assert plan.num_steps == 1
    assert len(plan.transfers) == 6
    assert all(t.dst == DESTINATION and t.raw for t in plan.transfers)


def test_staggered_serializes():
    plan = build_staggered_plan(rs_recipe(6, 3))
    assert plan.num_steps == 6
    steps = sorted(t.step for t in plan.transfers)
    assert steps == list(range(6))


def test_ppr_steps_formula():
    for k in range(1, 20):
        assert ppr_timesteps(k) == math.ceil(math.log2(k + 1))


def test_ppr_plan_matches_fig2_rs32():
    """Fig. 2: RS(3,2), helpers [h1,h2,h3] + dest: h1->h2 and h3->dest at
    step 0, then h2->dest at step 1."""
    recipe = rs_recipe(3, 2, lost=0)
    h1, h2, h3 = recipe.helpers
    plan = build_ppr_plan(recipe)
    assert plan.num_steps == 2
    step0 = {(t.src, t.dst) for t in plan.transfers_at(0)}
    step1 = {(t.src, t.dst) for t in plan.transfers_at(1)}
    assert step0 == {(h1, h2), (h3, DESTINATION)}
    assert step1 == {(h2, DESTINATION)}


def test_ppr_every_helper_sends_exactly_once(any_code):
    code = any_code
    lost = 0
    recipe = code.repair_recipe(lost, set(range(code.n)) - {lost})
    plan = build_ppr_plan(recipe)
    senders = [t.src for t in plan.transfers]
    assert sorted(senders) == sorted(recipe.helpers)


def test_ppr_transfers_within_step_are_link_disjoint(any_code):
    code = any_code
    recipe = code.repair_recipe(0, set(range(code.n)) - {0})
    plan = build_ppr_plan(recipe)
    for step in range(plan.num_steps):
        transfers = plan.transfers_at(step)
        sources = [t.src for t in transfers]
        dests = [t.dst for t in transfers]
        assert len(set(sources)) == len(sources)
        assert len(set(dests)) == len(dests)
        assert not set(sources) & set(dests)


def test_ppr_destination_receives_final_aggregate():
    recipe = rs_recipe(6, 3)
    plan = build_ppr_plan(recipe)
    last_step = plan.num_steps - 1
    final = [t for t in plan.transfers_at(last_step) if t.dst == DESTINATION]
    assert final, "destination must receive a transfer in the last step"


def test_star_vs_ppr_transfer_time_estimates():
    """Theorem 1 ratio emerges from the plan estimates."""
    recipe = rs_recipe(6, 3)
    chunk, bw = 64e6, 125e6
    star = build_star_plan(recipe).estimate_transfer_time(chunk, bw)
    ppr = build_ppr_plan(recipe).estimate_transfer_time(chunk, bw)
    assert star == pytest.approx(6 * chunk / bw)
    assert ppr == pytest.approx(3 * chunk / bw)


def test_total_bytes_identical_for_star_and_rs_ppr():
    """PPR does not reduce total repair traffic for RS (§1) — only time."""
    recipe = rs_recipe(6, 3)
    star = build_star_plan(recipe).total_bytes(1.0)
    ppr = build_ppr_plan(recipe).total_bytes(1.0)
    assert star == pytest.approx(6.0)
    assert ppr == pytest.approx(6.0)


def test_max_ingress_reduction():
    """The destination's ingress drops from k chunks to ~log2(k+1)."""
    recipe = rs_recipe(12, 4)
    star = build_star_plan(recipe)
    ppr = build_ppr_plan(recipe)
    assert star.max_ingress_bytes(1.0) == pytest.approx(12.0)
    assert ppr.max_ingress_bytes(1.0) <= math.ceil(math.log2(13))


def test_memory_footprint_bound():
    """§4.3: PPR nodes hold at most ceil(log2(k+1)) chunks."""
    recipe = rs_recipe(12, 4)
    ppr = build_ppr_plan(recipe)
    star = build_star_plan(recipe)
    assert ppr.memory_footprint_bound(1.0) <= math.ceil(math.log2(13))
    assert star.memory_footprint_bound(1.0) == pytest.approx(12.0)


def test_children_of_matches_incoming():
    recipe = rs_recipe(6, 3)
    plan = build_ppr_plan(recipe)
    for node in plan.participants:
        assert set(plan.children_of(node)) == {
            t.src for t in plan.incoming(node)
        }


def test_build_plan_dispatch():
    recipe = rs_recipe()
    assert build_plan("star", recipe).strategy == "star"
    assert build_plan("staggered", recipe).strategy == "staggered"
    assert build_plan("ppr", recipe).strategy == "ppr"
    with pytest.raises(PlanError):
        build_plan("quantum", recipe)


def test_single_helper_ppr():
    recipe = whole_chunk_recipe(0, {1: 1})
    plan = build_ppr_plan(recipe)
    assert plan.num_steps == 1
    assert len(plan.transfers) == 1
