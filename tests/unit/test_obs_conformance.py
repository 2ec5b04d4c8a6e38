"""Unit tests for Theorem-1 / Eq.-1 conformance checking."""

from __future__ import annotations

import pytest

from repro.obs import causal, conformance
from repro.obs.span import Span
from repro.repair.plan import scheme


def _phase(span_id, phase, start, end, node, **attrs) -> Span:
    return Span(
        span_id=span_id,
        name=f"sim.phase.{phase}",
        start=start,
        end=end,
        node=node,
        category="sim.phase",
        attrs=attrs,
    )


def _umbrella(strategy: str, k: int) -> Span:
    return Span(
        span_id=99,
        name="sim.repair",
        start=0.0,
        end=10.0,
        node="dest",
        category="sim.repair",
        attrs={
            "trace_id": "t-x",
            "repair_id": "r-x",
            "strategy": strategy,
            "helpers": k,
        },
    )


def _star_dag(k: int = 3) -> causal.RepairDag:
    """k simultaneous helper transfers funneling into one destination."""
    tid = {"trace_id": "t-x"}
    spans = [_umbrella("star", k)]
    sid = 1
    for i in range(k):
        helper = f"h{i}"
        spans.append(_phase(sid, "disk_read", 0.0, 1.0, helper, **tid))
        sid += 1
        spans.append(
            _phase(sid, "network", 1.0, 1.0 + k, "dest", src=helper, **tid)
        )
        sid += 1
    spans.append(_phase(sid, "compute", 1.0 + k, 1.5 + k, "dest", **tid))
    spans.append(_phase(sid + 1, "disk_write", 1.5 + k, 2.0 + k, "dest", **tid))
    (dag,) = causal.stitch(spans, clock="virtual")
    return dag


class TestExpectedTransferDepth:
    @pytest.mark.parametrize(
        "strategy,k,expected",
        [
            ("ppr", 4, 3),
            ("ppr", 6, 3),
            ("ppr", 12, 4),
            ("star", 6, 6),
            ("staggered", 6, 6),
            ("chain", 6, 6),
        ],
    )
    def test_closed_forms(self, strategy, k, expected):
        assert scheme(strategy).steps(k) == expected

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            scheme("mystery").steps(4)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            scheme("ppr").steps(0)


class TestCheckRepairStructure:
    def test_star_incast_is_k_deep(self):
        report = conformance.check_repair(_star_dag(k=3))
        by_name = {c.name: c for c in report.checks}
        depth = by_name["structure.transfer_depth"]
        assert depth.status == conformance.PASS
        assert depth.observed == 3.0 and depth.predicted == 3.0
        fanin = by_name["structure.ingress_fanin"]
        assert fanin.status == conformance.PASS
        assert fanin.observed == 3.0

    def test_wrong_depth_fails(self):
        dag = _star_dag(k=3)
        dag.helpers = 4  # lie about k: observed depth 3 vs predicted 4
        report = conformance.check_repair(dag)
        by_name = {c.name: c for c in report.checks}
        assert by_name["structure.transfer_depth"].status == conformance.FAIL
        assert not report.passed

    def test_unknown_strategy_skips_structure(self):
        dag = _star_dag(k=3)
        dag.strategy = None
        report = conformance.check_repair(dag)
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["structure.transfer_depth"] == conformance.SKIP
        assert statuses["structure.ingress_fanin"] == conformance.SKIP
        assert report.passed  # skips never fail a repair
        assert report.gated == 0


class TestCheckRepairTiming:
    def _meta(self, k=3):
        # Star: k transfers of C bytes each through one link; the fixture
        # stretches each concurrent transfer to k chunk-times (fluid
        # sharing), so the union is exactly k * C / B.
        return {
            "chunk_size_bytes": 100.0,
            "net_bandwidth_Bps": 100.0,
            "io_bandwidth_Bps": 125.0,
            "io_seek_s": 0.2,
        }

    def test_timing_passes_when_metadata_matches(self):
        report = conformance.check_repair(_star_dag(k=3), meta=self._meta())
        by_name = {c.name: c for c in report.checks}
        net = by_name["timing.network"]
        assert net.status == conformance.PASS
        assert net.observed == pytest.approx(3.0)
        assert net.predicted == pytest.approx(3.0)
        read = by_name["timing.disk_read"]
        assert read.status == conformance.PASS
        assert read.predicted == pytest.approx(1.0)

    def test_timing_fails_outside_tolerance(self):
        meta = self._meta()
        meta["net_bandwidth_Bps"] = 1000.0  # predicts 0.3s, observed 3s
        report = conformance.check_repair(
            _star_dag(k=3), meta=meta, tolerance=0.25
        )
        by_name = {c.name: c for c in report.checks}
        assert by_name["timing.network"].status == conformance.FAIL

    def test_timing_skipped_without_metadata(self):
        report = conformance.check_repair(_star_dag(k=3))
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["timing.network"] == conformance.SKIP
        assert statuses["timing.disk_read"] == conformance.SKIP


class TestRenderReports:
    def test_render_shows_verdict_and_tally(self):
        reports = conformance.check_trace([_star_dag(k=3)])
        text = conformance.render_reports(reports)
        assert "[star k=3]" in text
        assert "PASS" in text
        assert "1/1 repair(s) conform" in text

    def test_render_empty(self):
        assert "no stitched repairs" in conformance.render_reports([])
