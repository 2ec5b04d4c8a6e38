"""Repair-cost models: what one reconstruction *moves*, per code family.

The reliability engine prices repairs with the closed forms of
:mod:`repro.repair.theory`; those forms need two numbers per code — how
many helpers a repair contacts (``d``) and how many chunk-units of
traffic it moves (``γ``).  For the GF(2^8) codes the library actually
implements (RS, LRC, ...) both fall out of the repair recipe.  For the
regenerating codes of Dimakis et al. — MSR and MBR, the
repair-*traffic*-reducing lever the PPR paper never compares against —
no byte-level implementation exists here, so they are modeled by their
cut-set bounds: ``γ_MSR(d) = d/(d-k+1)`` and ``γ_MBR(d) = 2d/(2d-k+1)``
chunk-units (:func:`repro.repair.theory.msr_repair_traffic` /
:func:`~repro.repair.theory.mbr_repair_traffic`).

A :class:`RepairCostModel` therefore exposes:

* the stripe shape (``n``, ``k``, ``fault_tolerance``) the Monte Carlo
  engine tracks stripes by,
* :meth:`repair_cases` — the single-failure repair as a weighted mixture
  of ``(helpers, traffic)`` cases (LRC repairs are a mixture: local
  group for data/local-parity chunks, full ``k`` for global parities),
* :meth:`mean_repair_seconds` — Eq. (1) generalized over that mixture
  for a given repair scheme,
* :meth:`multi_failure_traffic` — degraded-state recoverability and
  cost: MSR/MBR regenerate only the single-failure case and fall back
  to conventional ``k + f - 1`` repair under concurrent failures (the
  CR-SIM/SMRSU modeling convention).

``make_cost_model`` parses spec strings (``"msr(6,3)"``,
``"mbr(6,3,7)"``) and falls back to wrapping any code the byte-level
registry (:mod:`repro.codes.registry`) can build.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.codes import make_code
from repro.codes.base import ErasureCode
from repro.errors import ConfigurationError
from repro.repair import plan, theory


@dataclass(frozen=True)
class RepairCase:
    """One way a single-chunk repair can look, with its probability.

    ``weight`` is the fraction of single-failure repairs of this shape
    (uniform over lost chunk index), ``helpers`` the number of source
    nodes contacted, ``traffic_chunks`` the chunk-units transferred.
    """

    weight: float
    helpers: int
    traffic_chunks: float


class RepairCostModel(abc.ABC):
    """Shape + repair economics of one redundancy scheme."""

    # ------------------------------------------------------------------
    # Identity / shape
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable name, e.g. ``"MSR(6,3,d=8)"``."""

    @property
    @abc.abstractmethod
    def k(self) -> int:
        """Data chunks per stripe."""

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Total chunks per stripe."""

    @property
    def num_parity(self) -> int:
        return self.n - self.k

    @property
    @abc.abstractmethod
    def fault_tolerance(self) -> int:
        """Guaranteed simultaneous chunk losses survivable (``m``)."""

    @property
    def storage_chunks_per_chunk(self) -> float:
        """Bytes stored per logical chunk, in chunk units (α; 1 unless MBR)."""
        return 1.0

    @property
    def storage_overhead(self) -> float:
        """Raw bytes per user byte, storage blowup α included."""
        return self.n * self.storage_chunks_per_chunk / self.k

    # ------------------------------------------------------------------
    # Repair economics
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def repair_cases(self) -> "List[RepairCase]":
        """The single-failure repair as a weighted case mixture."""

    def repair_traffic_chunks(self) -> float:
        """Mean chunk-units moved to repair one lost chunk (γ)."""
        return sum(c.weight * c.traffic_chunks for c in self.repair_cases())

    def mean_repair_seconds(
        self,
        scheme: str,
        chunk_size: float,
        io_bandwidth: float,
        net_bandwidth: float,
        compute_seconds_per_byte: float,
        num_slices: int = 1,
    ) -> float:
        """Expected single-chunk reconstruction time under ``scheme``.

        The generalized Eq. (1) (:func:`repro.repair.theory.
        model_reconstruction_time`) averaged over :meth:`repair_cases`,
        each case priced at the scheme's step count for its helpers.
        """
        row = plan.scheme(scheme)
        return sum(
            case.weight
            * theory.model_reconstruction_time(
                row.steps(case.helpers, num_slices),
                case.helpers,
                case.traffic_chunks,
                chunk_size,
                io_bandwidth,
                net_bandwidth,
                compute_seconds_per_byte,
            )
            for case in self.repair_cases()
        )

    # ------------------------------------------------------------------
    # Degraded-state recoverability
    # ------------------------------------------------------------------
    def repairable(self, failed: int) -> bool:
        """Whether a stripe with ``failed`` lost chunks is recoverable."""
        return 0 <= failed <= self.fault_tolerance

    def multi_failure_traffic(self, failed: int) -> float:
        """Total chunk-units to repair ``failed`` concurrent losses.

        Default (conventional parallel repair, per the CR-SIM
        convention): one node downloads ``k`` chunks, decodes, and ships
        the other ``failed - 1`` rebuilt chunks on — ``k + failed - 1``.
        Subclasses override the ``failed == 1`` case when the code
        offers a cheaper equation.
        """
        if not self.repairable(failed):
            raise ConfigurationError(
                f"{self.name}: {failed} concurrent losses are unrecoverable"
            )
        if failed == 0:
            return 0.0
        return float(self.k + failed - 1)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class CodeBackedModel(RepairCostModel):
    """Repair costs read off a real :class:`~repro.codes.base.ErasureCode`.

    Helpers and traffic come from the code's own repair recipes, one per
    possible lost chunk, grouped into weighted cases.  Sub-chunk codes
    (``rows > 1``) count fractional chunk reads, so Rotated RS's partial
    reads are priced as such.
    """

    def __init__(self, code: ErasureCode):
        self._code = code
        self._cases: "List[RepairCase] | None" = None

    @property
    def code(self) -> ErasureCode:
        return self._code

    @property
    def name(self) -> str:
        return self._code.name

    @property
    def k(self) -> int:
        return self._code.k

    @property
    def n(self) -> int:
        return self._code.n

    @property
    def fault_tolerance(self) -> int:
        return self._code.fault_tolerance

    def repair_cases(self) -> "List[RepairCase]":
        if self._cases is None:
            by_shape: "Dict[tuple, int]" = {}
            rows = self._code.rows
            for lost in range(self.n):
                recipe = self._code.repair_recipe(
                    lost, (i for i in range(self.n) if i != lost)
                )
                helpers = len(recipe.terms)
                traffic = sum(
                    len(term.read_rows) for term in recipe.terms
                ) / rows
                key = (helpers, traffic)
                by_shape[key] = by_shape.get(key, 0) + 1
            self._cases = [
                RepairCase(count / self.n, helpers, traffic)
                for (helpers, traffic), count in sorted(by_shape.items())
            ]
        return self._cases

    def multi_failure_traffic(self, failed: int) -> float:
        if failed == 1:
            return self.repair_traffic_chunks()
        return super().multi_failure_traffic(failed)


@dataclass(frozen=True)
class RegeneratingModel(RepairCostModel):
    """Common shape of the MSR/MBR cut-set-bound models.

    ``d`` helpers (``k <= d < n``) each ship ``β`` so one lost chunk
    regenerates from γ(d) chunk-units of traffic; concurrent failures
    fall back to conventional ``k + f - 1`` repair because a single
    regeneration equation rebuilds only one node.
    """

    _k: int
    _m: int
    d: int

    def __post_init__(self) -> None:
        if self._k < 1 or self._m < 1:
            raise ConfigurationError(
                f"{self.family.upper()} needs k >= 1 and m >= 1, "
                f"got ({self._k}, {self._m})"
            )
        if not self._k <= self.d < self._k + self._m:
            raise ConfigurationError(
                f"{self.family.upper()}({self._k},{self._m}) needs "
                f"k <= d < n, got d={self.d}"
            )

    family = "regenerating"

    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return self._k + self._m

    @property
    def fault_tolerance(self) -> int:
        return self._m  # MDS point of the storage-bandwidth tradeoff

    @property
    def name(self) -> str:
        return f"{self.family.upper()}({self._k},{self._m},d={self.d})"

    def repair_cases(self) -> "List[RepairCase]":
        return [RepairCase(1.0, self.d, self.gamma())]

    @abc.abstractmethod
    def gamma(self) -> float:
        """Single-failure repair traffic γ(d) in chunk units."""

    def multi_failure_traffic(self, failed: int) -> float:
        if failed == 1 and self.n - 1 >= self.d:
            return self.gamma()
        return super().multi_failure_traffic(failed)


class MSRModel(RegeneratingModel):
    """Minimum-Storage Regenerating: RS storage, γ = d/(d-k+1) repair."""

    family = "msr"

    def gamma(self) -> float:
        return theory.msr_repair_traffic(self._k, self.d)


class MBRModel(RegeneratingModel):
    """Minimum-Bandwidth Regenerating: γ = α = 2d/(2d-k+1) chunk units."""

    family = "mbr"

    def gamma(self) -> float:
        return theory.mbr_repair_traffic(self._k, self.d)

    @property
    def storage_chunks_per_chunk(self) -> float:
        return theory.mbr_storage_per_chunk(self._k, self.d)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _make_msr(k: int, m: int, d: "int | None" = None) -> MSRModel:
    return MSRModel(k, m, (k + m - 1) if d is None else d)


def _make_mbr(k: int, m: int, d: "int | None" = None) -> MBRModel:
    return MBRModel(k, m, (k + m - 1) if d is None else d)


_MODEL_FACTORIES: "Dict[str, Callable[..., RepairCostModel]]" = {
    "msr": _make_msr,
    "mbr": _make_mbr,
}

_SPEC_RE = re.compile(
    r"^\s*(?P<family>[a-zA-Z_]+)\s*[\(\-]\s*(?P<args>[\d,\s\-]*)\s*\)?\s*$"
)


def model_families() -> "List[str]":
    """Families with *model-only* repair costs (no byte-level code)."""
    return sorted(_MODEL_FACTORIES)


def available_cost_models() -> "List[str]":
    """Every spec family ``make_cost_model`` accepts."""
    from repro.codes.registry import available_codes

    return sorted(set(available_codes()) | set(_MODEL_FACTORIES))


def make_cost_model(spec: "str | RepairCostModel") -> RepairCostModel:
    """Build a cost model from ``"msr(6,3)"``-style specs.

    Model-only families (``msr``, ``mbr``, optional third argument
    ``d``) are built directly; anything else goes through
    :func:`repro.codes.make_code` and is wrapped in
    :class:`CodeBackedModel`, so every registered byte-level code is a
    valid matrix axis for free.
    """
    if isinstance(spec, RepairCostModel):
        return spec
    match = _SPEC_RE.match(spec)
    if match and match.group("family").lower() in _MODEL_FACTORIES:
        factory = _MODEL_FACTORIES[match.group("family").lower()]
        args_text = match.group("args").replace("-", ",")
        args = [int(tok) for tok in args_text.split(",") if tok.strip()]
        return factory(*args)
    return CodeBackedModel(make_code(spec))
