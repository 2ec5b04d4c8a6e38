"""Execute a repair plan on real buffers.

This is the correctness backbone of the reproduction: it walks a plan's
timesteps, computes each helper's partial result locally, XOR-merges at the
aggregators, and returns the destination's reconstructed chunk.  Tests
assert the result is byte-identical to centralized decode for every
strategy, every code, and randomized failure patterns — the paper's
associativity argument (§4.1) made executable.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro import obs
from repro.obs import causal
from repro.errors import PlanError
from repro.codes.recipe import RepairRecipe
from repro.repair.plan import DESTINATION, RepairPlan


def execute_plan(
    plan: RepairPlan, chunks: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Run ``plan`` against helper chunk buffers; return the rebuilt chunk.

    ``chunks`` maps helper chunk index -> full chunk buffer.  Raw transfers
    (star/staggered) ship rows of the helper's chunk and the destination
    applies the recipe; partial transfers (PPR/chain) ship locally-combined
    results that merge en route.
    """
    recipe = plan.recipe
    for helper in recipe.helpers:
        if helper not in chunks:
            raise PlanError(f"missing buffer for helper chunk {helper}")

    ctx = causal.current()
    with obs.maybe_span(
        "repair.execute_plan",
        category="repair",
        strategy=plan.strategy,
        helpers=len(recipe.helpers),
        steps=plan.num_steps,
        **({"trace_id": ctx.trace_id} if ctx is not None else {}),
    ):
        if plan.raw:
            return _execute_raw(plan, chunks)
        return _execute_partial(plan, chunks)


def _execute_raw(
    plan: RepairPlan, chunks: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Raw plans: destination gathers raw rows, then decodes centrally."""
    recipe = plan.recipe
    received: Dict[int, np.ndarray] = {}
    for step in range(plan.num_steps):
        for transfer in plan.transfers_at(step):
            if transfer.dst != DESTINATION or not transfer.raw:
                raise PlanError(
                    f"{plan.strategy} plan must send raw rows to DESTINATION"
                )
            received[transfer.src] = np.asarray(
                chunks[transfer.src], dtype=np.uint8
            )
    return recipe.execute(received)


def _execute_partial(
    plan: RepairPlan, chunks: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Partial plans: every node computes/merges partials; destination
    assembles."""
    recipe = plan.recipe
    # Local partial at every helper (the first-timestep scalar multiplies).
    state: Dict[int, Dict[int, np.ndarray]] = {
        helper: recipe.partial_result(helper, chunks[helper])
        for helper in recipe.helpers
    }
    state[DESTINATION] = {}
    for step in range(plan.num_steps):
        step_transfers = plan.transfers_at(step)
        # Within a step, all sends use pre-step state (parallel semantics).
        payloads = {t.src: state[t.src] for t in step_transfers}
        for transfer in step_transfers:
            if transfer.raw:
                raise PlanError(
                    f"{plan.strategy} plan mixes raw and partial transfers"
                )
            state[transfer.dst] = RepairRecipe.merge_partials(
                state[transfer.dst], payloads[transfer.src]
            )
    return recipe.assemble(state[DESTINATION])
