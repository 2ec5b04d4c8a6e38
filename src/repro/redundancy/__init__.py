"""Redundancy schemes beyond the paper's RS baseline, as *models*.

Two levers the PPR paper holds fixed — what a repair moves (the code)
and which failure combinations can lose data (the placement) — joined
with the paper's own lever (the repair scheme) under one Monte Carlo
driver:

* :mod:`repro.redundancy.models` — repair-cost models: real repair
  recipes for implemented codes, cut-set bounds for MSR/MBR.
* :mod:`repro.redundancy.matrix` — the scheme × code × placement sweep,
  Markov-validated at its RS/random baseline cell.
"""

from repro.redundancy.models import (
    CodeBackedModel,
    MBRModel,
    MSRModel,
    RegeneratingModel,
    RepairCase,
    RepairCostModel,
    available_cost_models,
    make_cost_model,
    model_families,
)

# The matrix driver imports the reliability engine, which imports the
# models above — so its symbols resolve lazily (PEP 562) to keep
# ``import repro.reliability`` acyclic.
_MATRIX_EXPORTS = (
    "DEFAULT_CODES",
    "DEFAULT_PLACEMENTS",
    "MarkovValidation",
    "MatrixCell",
    "MatrixConfig",
    "MatrixResult",
    "cell_seed",
    "compare_axes",
    "run_matrix",
    "validate_against_markov",
)


def __getattr__(name):
    if name in _MATRIX_EXPORTS:
        from repro.redundancy import matrix

        return getattr(matrix, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "DEFAULT_CODES",
    "DEFAULT_PLACEMENTS",
    "CodeBackedModel",
    "MBRModel",
    "MSRModel",
    "MarkovValidation",
    "MatrixCell",
    "MatrixConfig",
    "MatrixResult",
    "RegeneratingModel",
    "RepairCase",
    "RepairCostModel",
    "available_cost_models",
    "cell_seed",
    "compare_axes",
    "make_cost_model",
    "model_families",
    "run_matrix",
    "validate_against_markov",
]
