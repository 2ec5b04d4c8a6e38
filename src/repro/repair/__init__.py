"""Repair planning and analysis: who sends what to whom, and when.

Given a :class:`~repro.codes.recipe.RepairRecipe` (the linear equation),
this package decides the *communication structure* of a repair:

* :mod:`repro.repair.plan` — the scheme table and its plan builders:
  traditional **star** (all k helpers funnel into the repair site),
  **staggered** serial transfer (§4.2's strawman), **PPR**'s binomial
  reduction tree finishing in ``ceil(log2(k+1))`` timesteps, and the
  pipelined **chain**.
* :mod:`repro.repair.executor` — executes any plan on real buffers,
  proving distributed aggregation bit-exactly matches centralized decode.
* :mod:`repro.repair.theory` — Theorem 1, Table 1 and Table 2 closed forms.
"""

from repro.repair.plan import (
    DESTINATION,
    RepairPlan,
    TransferSpec,
    build_plan,
    build_ppr_plan,
    build_staggered_plan,
    build_star_plan,
)
from repro.repair.executor import execute_plan
from repro.repair import theory

__all__ = [
    "DESTINATION",
    "RepairPlan",
    "TransferSpec",
    "build_plan",
    "build_ppr_plan",
    "build_staggered_plan",
    "build_star_plan",
    "execute_plan",
    "theory",
]
