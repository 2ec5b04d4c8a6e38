"""The redundancy matrix: scheme × code × placement under one driver.

The paper evaluates repair *schemes* (star vs PPR) with the code and
placement held fixed; the wider systems literature varies the other two
axes instead — regenerating codes shrink what a repair moves, copyset
placement shrinks how often a failure combination lands on data.  This
driver runs the PR 4 Monte Carlo reliability engine over all three axes
at once so the levers can be compared — and composed — on one footing:

* **scheme** — how a repair's transfers are arranged in time and space
  (:data:`repro.repair.plan.SCHEMES`),
* **code** — what a repair moves and survives
  (:func:`repro.redundancy.models.make_cost_model` specs: any
  registered byte-level code, or the MSR/MBR cut-set models),
* **placement** — which disk combinations can lose data
  (:data:`repro.reliability.stripes.PLACEMENTS`).

Every cell runs under an accelerated, bandwidth-limited regime (the
``durability_comparison`` convention: disk MTTF in days, narrow repair
queue) with its own :func:`cell_seed`-derived stream, so any cell can be
re-run alone — or the grid extended — without perturbing the others.
The ``rs × random`` baseline is additionally validated against the
closed-form Markov chain (:func:`repro.reliability.markov.markov_mttdl`)
in a side run that configures the engine to *be* the CTMC.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import ExperimentResult
from repro.analysis.render import Table
from repro.errors import ConfigurationError
from repro.redundancy.models import make_cost_model
from repro.reliability.engine import ReliabilityConfig, ReliabilityEngine
from repro.reliability.hierarchy import Hierarchy
from repro.reliability.markov import markov_mttdl
from repro.reliability.results import ReliabilityReport
from repro.reliability.stripes import PLACEMENTS
from repro.repair import plan

#: Default axes: every repair scheme with a plan
#: (:data:`repro.repair.plan.STRATEGIES`), the four code families
#: (implemented RS/LRC, modeled MSR/MBR) at matched (k, m), and the
#: three placement regimes.
DEFAULT_CODES = ("rs(6,3)", "lrc(6,2,2)", "msr(6,3)", "mbr(6,3)")
DEFAULT_PLACEMENTS = ("random", "copyset", "pss")


def cell_seed(seed: int, scheme: str, code: str, placement: str) -> int:
    """The cell's own engine seed, a stable function of its coordinates.

    Platform-independent (sha256, like :func:`repro.util.rng.derive_rng`)
    and independent of which other cells run, so a single re-run of one
    cell reproduces its matrix result bit-for-bit.
    """
    label = f"{seed}/matrix/{scheme}/{code}/{placement}"
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative int64


@dataclass(frozen=True)
class MatrixConfig:
    """One redundancy-matrix sweep: axes × per-cell engine regime."""

    schemes: "Sequence[str]" = plan.STRATEGIES
    codes: "Sequence[str]" = DEFAULT_CODES
    placements: "Sequence[str]" = DEFAULT_PLACEMENTS
    num_stripes: int = 500
    trials: int = 4
    horizon_years: float = 10.0
    #: Copyset scatter-width target (None -> each code's 2*(n-1)).
    scatter_width: "Optional[int]" = None
    #: Site geometry; the default hosts every default code (n <= 12
    #: racks) with one chunk per rack.
    hierarchy: Hierarchy = field(
        default_factory=lambda: Hierarchy(
            racks=12, machines_per_rack=2, disks_per_machine=2,
            upgrade_domains=4,
        )
    )
    #: Accelerated aging + a narrow repair queue, the regime of
    #: ``repro.reliability.report.accelerated_config``: losses are
    #: observable and the repair queue (which the scheme axis modulates)
    #: actually limits durability.
    disk_lifetime: str = "exp:5d"
    chunk_size: str = "256MiB"
    net_bandwidth: str = "0.5Gbps"
    repair_slots: int = 2
    #: Validate the rs × random baseline against the closed-form Markov
    #: chain in a side run.
    validate_baseline: bool = True
    #: Trials for that side run (each runs until first loss).
    validation_trials: int = 400
    seed: int = 2016

    def validate(self) -> None:
        if not self.schemes or not self.codes or not self.placements:
            raise ConfigurationError("every matrix axis needs >= 1 entry")
        for scheme in self.schemes:
            plan.scheme(scheme)
        for placement in self.placements:
            if placement not in PLACEMENTS:
                raise ConfigurationError(
                    f"unknown placement {placement!r}; "
                    f"pick from {PLACEMENTS}"
                )
        for code in self.codes:
            make_cost_model(code)  # raises on bad spec

    def cell_config(
        self, scheme: str, code: str, placement: str
    ) -> ReliabilityConfig:
        """The engine configuration of one cell."""
        return ReliabilityConfig(
            code=code,
            scheme=scheme,
            placement=placement,
            scatter_width=self.scatter_width,
            num_stripes=self.num_stripes,
            trials=self.trials,
            horizon_years=self.horizon_years,
            hierarchy=self.hierarchy,
            disk_lifetime=self.disk_lifetime,
            chunk_size=self.chunk_size,
            net_bandwidth=self.net_bandwidth,
            repair_slots=self.repair_slots,
            seed=cell_seed(self.seed, scheme, code, placement),
        )


@dataclass(frozen=True)
class MatrixCell:
    """One (scheme, code, placement) cell and its aggregated report."""

    scheme: str
    code: str
    placement: str
    report: ReliabilityReport

    def fingerprint(self) -> str:
        """Stable digest of the cell's raw trial outcomes."""
        h = hashlib.sha256()
        for t in self.report.trials:
            h.update(repr((
                t.trial, t.hours, t.losses, t.loss_events,
                t.disk_failures, t.repairs_completed,
                round(t.repair_hours, 9),
                round(t.exposure_chunk_hours, 9),
                round(t.repair_traffic_bytes, 3),
            )).encode("utf-8"))
        return h.hexdigest()[:16]

    def row(self) -> "Dict[str, object]":
        """Flat summary row (the CLI table / benchmark record source)."""
        rep = self.report
        mttdl, mttdl_lo, mttdl_hi = rep.mttdl_years()
        return {
            "scheme": self.scheme,
            "code": self.code,
            "placement": self.placement,
            "mttdl_years": mttdl,
            "mttdl_ci_low_years": mttdl_lo,
            "mttdl_ci_high_years": mttdl_hi,
            "p_loss_per_year": rep.p_loss_per_year()[0],
            "p_loss_event_per_year": rep.p_loss_event_per_year()[0],
            "loss_events": rep.total_loss_events,
            "lost_stripes": rep.total_losses,
            "availability_nines": rep.availability_nines(),
            "repair_traffic_bytes_per_stripe_year": (
                rep.repair_traffic_bytes_per_stripe_year()
            ),
            "per_chunk_repair_s": rep.per_chunk_repair_hours * 3600.0,
            "fingerprint": self.fingerprint(),
        }


@dataclass(frozen=True)
class MarkovValidation:
    """The rs × random baseline cell checked against the closed form."""

    code: str
    simulated_mttdl_hours: float
    ci_low_hours: float
    ci_high_hours: float
    markov_mttdl_hours: float

    @property
    def inside_ci(self) -> bool:
        return (
            self.ci_low_hours
            <= self.markov_mttdl_hours
            <= self.ci_high_hours
        )


@dataclass(frozen=True)
class MatrixResult:
    """All cells of one sweep, plus the baseline validation."""

    config: MatrixConfig
    cells: "List[MatrixCell]"
    validation: "Optional[MarkovValidation]" = None

    def cell(self, scheme: str, code: str, placement: str) -> MatrixCell:
        for c in self.cells:
            if (c.scheme, c.code, c.placement) == (scheme, code, placement):
                return c
        raise KeyError((scheme, code, placement))

    def rows(self) -> "List[Dict[str, object]]":
        return [c.row() for c in self.cells]

    def to_experiment(self) -> ExperimentResult:
        """Render as the analysis layer's standard experiment shape."""
        table = Table(
            ["scheme", "code", "placement", "MTTDL", "P(loss)/yr",
             "P(event)/yr", "nines", "traffic/stripe-yr", "repair"],
            title=(
                f"Redundancy matrix ({len(self.cells)} cells, "
                f"{self.config.trials} trials x "
                f"{self.config.num_stripes} stripes each)"
            ),
        )
        for c in self.cells:
            row = c.row()
            mttdl = row["mttdl_years"]
            mttdl_text = (
                f"{mttdl:.3g}y" if math.isfinite(mttdl) else "inf"
            )
            if c.report.total_losses == 0:
                mttdl_text = f">={mttdl_text}"
            table.add_row(
                c.scheme,
                c.code,
                c.placement,
                mttdl_text,
                f"{row['p_loss_per_year']:.3g}",
                f"{row['p_loss_event_per_year']:.3g}",
                f"{row['availability_nines']:.2f}",
                f"{row['repair_traffic_bytes_per_stripe_year']:.3g}B",
                f"{row['per_chunk_repair_s']:.1f}s",
            )
        notes_parts = [
            "Accelerated regime (disk MTTF "
            f"{self.config.disk_lifetime.split(':')[-1]}, "
            f"{self.config.repair_slots} repair slots): MTTDL ratios "
            "transfer to realistic lifetimes, absolute values do not.",
        ]
        if self.validation is not None:
            v = self.validation
            verdict = "inside" if v.inside_ci else "OUTSIDE"
            notes_parts.append(
                f"Markov check ({v.code}, random placement): closed form "
                f"{v.markov_mttdl_hours:.4g}h is {verdict} the simulated "
                f"95% CI [{v.ci_low_hours:.4g}, {v.ci_high_hours:.4g}]h."
            )
        notes = "  ".join(notes_parts)
        return ExperimentResult(
            experiment_id="redundancy_matrix",
            title="Redundancy matrix: scheme x code x placement",
            rows=self.rows(),
            report=table.render() + "\n" + notes,
            notes=notes,
        )


# ----------------------------------------------------------------------
# Markov validation of the baseline cell
# ----------------------------------------------------------------------
#: CTMC rates for the validation side run (per chunk, 1/hours).  High
#: enough that until-loss trials absorb quickly even at m = 3.
_VALIDATION_LAM, _VALIDATION_MU = 0.01, 0.1


def validate_against_markov(
    code: str, trials: int = 400, seed: int = 2016
) -> MarkovValidation:
    """Run the engine *as* the CTMC for ``code`` and compare closed form.

    The engine realizes the birth-death chain exactly when every model
    knob beyond exponential failure/repair is switched off (the protocol
    of ``docs/RELIABILITY.md``): one stripe, one chunk per disk,
    unlimited slots, no detection delay, no transients, exponential
    repair jitter, stopping at first loss.
    """
    model = make_cost_model(code)
    n, m = model.n, model.fault_tolerance
    config = ReliabilityConfig(
        code=code,
        scheme="ppr",
        num_stripes=1,
        trials=trials,
        hierarchy=Hierarchy(
            racks=n, machines_per_rack=1, disks_per_machine=1,
            upgrade_domains=1,
        ),
        disk_lifetime=f"exp:{1.0 / _VALIDATION_LAM}h",
        per_chunk_repair_hours=1.0 / _VALIDATION_MU,
        repair_jitter="exponential",
        repair_slots=n,
        contention=0.0,
        detection_delay_hours=0.0,
        machine_transient_rate_per_year=0.0,
        burst_rate_per_rack_per_year=0.0,
        horizon_years=1e6,
        until_loss=True,
        seed=seed,
    )
    report = ReliabilityEngine(config).run()
    sim, lo, hi = report.mttdl_hours()
    exact = markov_mttdl(
        n, m, _VALIDATION_LAM, _VALIDATION_MU, parallel_repairs=True
    )
    return MarkovValidation(
        code=code,
        simulated_mttdl_hours=sim,
        ci_low_hours=lo,
        ci_high_hours=hi,
        markov_mttdl_hours=exact,
    )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_matrix(config: "Optional[MatrixConfig]" = None, **kw) -> MatrixResult:
    """Run every (scheme, code, placement) cell of the matrix."""
    config = config or MatrixConfig()
    if kw:
        config = replace(config, **kw)
    config.validate()
    cells: "List[MatrixCell]" = []
    for scheme in config.schemes:
        for code in config.codes:
            for placement in config.placements:
                report = ReliabilityEngine(
                    config.cell_config(scheme, code, placement)
                ).run()
                cells.append(
                    MatrixCell(scheme, code, placement, report)
                )
    validation: "Optional[MarkovValidation]" = None
    if config.validate_baseline:
        rs_codes = [
            c for c in config.codes if c.strip().lower().startswith("rs")
        ]
        if rs_codes:
            validation = validate_against_markov(
                rs_codes[0],
                trials=config.validation_trials,
                seed=config.seed,
            )
    return MatrixResult(config=config, cells=cells, validation=validation)


def compare_axes(result: MatrixResult) -> "Dict[str, Tuple[str, float]]":
    """Headline winner per axis: the entry with the best mean nines."""
    best: "Dict[str, Tuple[str, float]]" = {}
    for axis in ("scheme", "code", "placement"):
        scores: "Dict[str, List[float]]" = {}
        for cell in result.cells:
            key = getattr(cell, axis)
            scores.setdefault(key, []).append(
                cell.report.availability_nines()
            )
        winner, values = max(
            scores.items(), key=lambda kv: sum(kv[1]) / len(kv[1])
        )
        best[axis] = (winner, sum(values) / len(values))
    return best
