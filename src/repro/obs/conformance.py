"""Theory conformance: check observed critical paths against Eq. 1 / Theorem 1.

Given the causal repair DAGs stitched by :mod:`repro.obs.causal`, this module
asks the question the paper's evaluation is built on: *does the repair we
actually ran have the critical-path structure and timing the closed forms in*
:mod:`repro.repair.theory` *predict?*

Three families of checks per traced repair:

Every prediction comes from the strategy's row of
:data:`repro.repair.plan.SCHEMES`:

* ``structure.transfer_depth`` — the serialized-transfer count on the
  critical path must equal the row's unsliced ``steps(k)``
  (``ceil(log2(k+1))`` for PPR, ``k`` for star/staggered/chain — the incast
  funnel serializes on the repair site's ingress link); a sliced hop is
  still one transfer.  Purely structural, so it holds on noisy wall clocks
  too — this is the check the live-mode CI smoke gates on.
* ``structure.ingress_fanin`` — the busiest ingress must receive the row's
  ``fanin(k)``: a star repair funnels all ``k`` helper transfers into one
  node (the paper's incast argument); a PPR tree's busiest ingress
  receives only ``ceil(log2(k+1))``.
* ``timing.network`` / ``timing.disk_read`` — when the trace metadata
  carries the modeled chunk size and bandwidths (sim recordings do), the
  seconds observed on the critical path must match the Eq. 1 terms within a
  configurable relative tolerance: ``steps(k, S) * C/B_N`` for the network
  term (Theorem 1, pipelined over the repair's ``S`` slices), ``seek +
  C/B_I`` for the leaf disk read.

Checks that lack the inputs they need (unknown strategy, no bandwidth
metadata, wall clock) are reported as ``skip`` — never silently dropped —
and a repair passes iff no check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.repair.plan import SCHEMES

from .causal import RepairDag

#: Default relative tolerance for timing checks (|obs - pred| <= tol * pred).
DEFAULT_TOLERANCE = 0.25

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class Check:
    """One conformance check outcome for one traced repair."""

    name: str
    status: str
    observed: Optional[float] = None
    predicted: Optional[float] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True unless the check failed (skips count as ok)."""
        return self.status != FAIL

    def to_dict(self) -> "Dict[str, object]":
        """JSON-friendly form (doctor incident bundles)."""
        out: "Dict[str, object]" = {"name": self.name, "status": self.status}
        if self.observed is not None:
            out["observed"] = self.observed
        if self.predicted is not None:
            out["predicted"] = self.predicted
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class RepairReport:
    """All conformance checks for one traced repair attempt."""

    trace_id: str
    repair_id: Optional[str]
    strategy: Optional[str]
    k: Optional[int]
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff no check failed."""
        return all(c.ok for c in self.checks)

    @property
    def gated(self) -> int:
        """Number of checks that actually ran (pass or fail)."""
        return sum(1 for c in self.checks if c.status != SKIP)

    def to_dict(self) -> "Dict[str, object]":
        """JSON-friendly form (doctor incident bundles)."""
        return {
            "trace_id": self.trace_id,
            "repair_id": self.repair_id,
            "strategy": self.strategy,
            "k": self.k,
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
        }


def _within(observed: float, predicted: float, tolerance: float) -> bool:
    if predicted <= 0:
        return observed <= tolerance
    return abs(observed - predicted) <= tolerance * predicted


def _timing_inputs(meta: Dict[str, object]) -> "tuple":
    chunk = meta.get("chunk_size_bytes")
    net = meta.get("net_bandwidth_Bps")
    io = meta.get("io_bandwidth_Bps")
    seek = meta.get("io_seek_s")
    chunk = float(chunk) if isinstance(chunk, (int, float)) and chunk else None
    net = float(net) if isinstance(net, (int, float)) and net else None
    io = float(io) if isinstance(io, (int, float)) and io else None
    seek = float(seek) if isinstance(seek, (int, float)) else 0.0
    return chunk, net, io, seek


def _verdict(
    name: str, ok: bool, observed: float, predicted: float, detail: str
) -> Check:
    return Check(
        name, PASS if ok else FAIL, observed=float(observed),
        predicted=float(predicted), detail=detail,
    )


def check_repair(
    dag: RepairDag,
    meta: "Optional[Dict[str, object]]" = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RepairReport:
    """Run every conformance check against one stitched repair DAG."""
    strategy, k = dag.strategy, dag.k
    report = RepairReport(dag.trace_id, dag.repair_id, strategy, k)
    checks = report.checks
    row = SCHEMES.get(strategy) if strategy and k is not None else None
    path = dag.critical_path()

    # --- structure: serialized transfer depth and busiest ingress ---------
    if row is None:
        detail = (
            "strategy or k unknown (no umbrella span in trace)"
            if strategy is None or k is None
            else f"no closed form for {strategy}"
        )
        for name in ("structure.transfer_depth", "structure.ingress_fanin"):
            checks.append(Check(name, SKIP, detail=detail))
    else:
        expected = int(row.steps(k))
        depth = dag.transfer_depth()
        checks.append(_verdict(
            "structure.transfer_depth", depth == expected, depth, expected,
            f"{strategy} k={k}: observed {depth} serialized transfer "
            f"step(s), theory predicts {expected}",
        ))
        node, fanin = dag.ingress_fanin()
        expected = row.fanin(k)
        checks.append(_verdict(
            "structure.ingress_fanin", fanin == expected, fanin, expected,
            f"busiest ingress {node} received {fanin} transfer(s); "
            f"theory predicts {expected}",
        ))

    # --- timing: Eq. 1 terms on the critical path -------------------------
    chunk, net_bw, io_bw, io_seek = _timing_inputs(meta or {})
    if row is None or chunk is None or net_bw is None:
        checks.append(Check(
            "timing.network", SKIP,
            detail="needs strategy, k, chunk_size_bytes and "
            "net_bandwidth_Bps in trace metadata",
        ))
    else:
        steps = row.steps(k, dag.slices)
        predicted = steps * chunk / net_bw
        observed = dag.path_network_seconds(path)
        law = row.law if dag.slices == 1 else f"{steps:g}*C/B"
        checks.append(_verdict(
            "timing.network", _within(observed, predicted, tolerance),
            observed, predicted,
            f"network seconds on critical path vs {law} "
            f"(tolerance {tolerance:.0%})",
        ))

    reads = [n.duration for n in path if n.phase == "disk_read"]
    if chunk is None or io_bw is None:
        checks.append(Check(
            "timing.disk_read", SKIP,
            detail="needs chunk_size_bytes and io_bandwidth_Bps in "
            "trace metadata",
        ))
    elif not reads:
        checks.append(Check(
            "timing.disk_read", SKIP, detail="no disk_read on the critical path"
        ))
    else:
        predicted = io_seek + chunk / io_bw
        observed = max(reads)
        checks.append(_verdict(
            "timing.disk_read", _within(observed, predicted, tolerance),
            observed, predicted,
            f"leaf read vs Eq. 1 seek + C/B_I (tolerance {tolerance:.0%})",
        ))
    return report


def check_trace(
    dags: Sequence[RepairDag],
    meta: "Optional[Dict[str, object]]" = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[RepairReport]:
    """Check every stitched repair in a trace; one report per repair."""
    return [check_repair(d, meta=meta, tolerance=tolerance) for d in dags]


def render_reports(reports: Sequence[RepairReport]) -> str:
    """Human-readable conformance report (one block per repair)."""
    if not reports:
        return "(no stitched repairs found in trace)\n"
    lines: List[str] = []
    for rep in reports:
        verdict = "PASS" if rep.passed else "FAIL"
        head = rep.repair_id or rep.trace_id
        strat = rep.strategy or "?"
        k = rep.k if rep.k is not None else "?"
        lines.append(f"repair {head}  [{strat} k={k}]  {verdict}")
        for c in rep.checks:
            mark = {PASS: "ok  ", FAIL: "FAIL", SKIP: "skip"}[c.status]
            obs_txt = "" if c.observed is None else f" observed={c.observed:g}"
            pred_txt = (
                "" if c.predicted is None else f" predicted={c.predicted:g}"
            )
            lines.append(f"  [{mark}] {c.name}{obs_txt}{pred_txt}")
            if c.detail:
                lines.append(f"         {c.detail}")
        lines.append("")
    total = len(reports)
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{total} repair(s) conform")
    return "\n".join(lines) + "\n"
