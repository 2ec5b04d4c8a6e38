"""Long-horizon Monte Carlo durability: MTTDL, nines, and exposure.

The package turns PPR's second-scale repair speedups (measured by
:mod:`repro.sim` and :mod:`repro.live`, predicted by
:mod:`repro.repair.theory`) into the year-scale durability quantities
operators actually buy disks for — see ``docs/RELIABILITY.md``.
"""

from repro.reliability.engine import ReliabilityConfig, ReliabilityEngine
from repro.reliability.hierarchy import Hierarchy
from repro.reliability.lifetimes import (
    HOURS_PER_YEAR,
    ExponentialLifetime,
    LifetimeModel,
    WeibullLifetime,
    make_lifetime,
)
from repro.reliability.markov import markov_mttdl, raid1_mttdl
from repro.reliability.results import ReliabilityReport, TrialResult
from repro.reliability.stripes import (
    CRITICAL,
    DEGRADED,
    HEALTHY,
    LOST,
    PLACEMENTS,
    STATE_NAMES,
    StripeMap,
    classify,
)

__all__ = [
    "CRITICAL",
    "DEGRADED",
    "HEALTHY",
    "HOURS_PER_YEAR",
    "LOST",
    "PLACEMENTS",
    "STATE_NAMES",
    "ExponentialLifetime",
    "Hierarchy",
    "LifetimeModel",
    "ReliabilityConfig",
    "ReliabilityEngine",
    "ReliabilityReport",
    "StripeMap",
    "TrialResult",
    "WeibullLifetime",
    "classify",
    "make_lifetime",
    "markov_mttdl",
    "raid1_mttdl",
]
