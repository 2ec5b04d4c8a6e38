"""tools/bench_compare.py: the perf-regression gate."""

import importlib.util
import io
import json
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _write(directory, name, metrics):
    payload = {"benchmark": name[len("BENCH_"):-len(".json")], "metrics": metrics}
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def _metric(name, value, config=None, units="s"):
    return {
        "metric": name,
        "value": value,
        "units": units,
        "config": config or {},
    }


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    baseline.mkdir()
    fresh.mkdir()
    return baseline, fresh


def test_identical_dirs_pass(dirs):
    baseline, fresh = dirs
    metrics = [_metric("t.median", 0.5), _metric("t.rounds", 7, units="count")]
    _write(baseline, "BENCH_x.json", metrics)
    _write(fresh, "BENCH_x.json", metrics)
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 0


def test_synthetic_regression_fails(dirs):
    """A 50% slowdown on a kept metric trips the 25% gate."""
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("t.median", 1.0)])
    _write(fresh, "BENCH_x.json", [_metric("t.median", 1.5)])
    out = io.StringIO()
    assert bench_compare.compare_dirs(baseline, fresh, out=out) == 1
    assert "FAIL" in out.getvalue()
    assert bench_compare.main(
        ["--baseline", str(baseline), "--fresh", str(fresh)]
    ) == 1


def test_within_tolerance_passes(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("t.median", 1.0)])
    _write(fresh, "BENCH_x.json", [_metric("t.median", 1.2)])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 0


def test_faster_median_passes_as_improved(dirs):
    """Wall-clock medians are one-sided: 4x faster passes, 2x slower fails."""
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("t.median", 1.0)])
    _write(fresh, "BENCH_x.json", [_metric("t.median", 0.25)])
    out = io.StringIO()
    assert bench_compare.compare_dirs(baseline, fresh, out=out) == 0
    assert "improved" in out.getvalue() and "PASS" in out.getvalue()
    _write(fresh, "BENCH_x.json", [_metric("t.median", 2.0)])
    out = io.StringIO()
    assert bench_compare.compare_dirs(baseline, fresh, out=out) == 1
    assert "improved" not in out.getvalue()


def test_model_metric_drift_fails_in_both_directions(dirs):
    """Only ``.median`` is one-sided; a simulator output 4x lower is drift."""
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("e.repair_time", 1.0)])
    _write(fresh, "BENCH_x.json", [_metric("e.repair_time", 0.25)])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 1


@pytest.mark.parametrize("name", [
    "fig1.network_s", "table1.ratio", "table2.steps",
    "redundancy_matrix.mttdl_h", "durability_comparison.loss_prob",
    "ext_fig8_qos.p99_s", "ablation_weights.total_s",
])
def test_model_metric_must_match_exactly(dirs, name):
    """Deterministic model outputs: a 1e-6 relative drift fails, either
    way, whatever ``--tolerance`` says; 1e-12 is float noise and passes."""
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric(name, 2.0)])
    for drift, failures in ((1e-6, 1), (-1e-6, 1), (1e-12, 0)):
        _write(fresh, "BENCH_x.json", [_metric(name, 2.0 * (1 + drift))])
        assert bench_compare.compare_dirs(
            baseline, fresh, tolerance=0.5, out=io.StringIO()
        ) == failures


def test_live_metric_and_median_keep_the_band(dirs):
    """The live pipelining measurement stays two-sided at the band and a
    wall-clock ``.median`` one-sided, while a model metric is exact."""
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [
        _metric("ext_live_pipelining.speedup", 2.0),
        _metric("test_fig1_phase_breakdown.median", 1.0),
    ])
    _write(fresh, "BENCH_x.json", [
        _metric("ext_live_pipelining.speedup", 2.4),
        _metric("test_fig1_phase_breakdown.median", 1.2),
    ])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 0
    _write(fresh, "BENCH_x.json", [
        _metric("ext_live_pipelining.speedup", 1.4),
        _metric("test_fig1_phase_breakdown.median", 1.2),
    ])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 1


def test_unstable_stats_are_skipped(dirs):
    """min/max/mean/stddev/rounds never fail the gate, however noisy."""
    baseline, fresh = dirs
    noisy = ["t.min", "t.max", "t.mean", "t.stddev", "t.rounds"]
    _write(baseline, "BENCH_x.json", [_metric(m, 1.0) for m in noisy])
    _write(fresh, "BENCH_x.json", [_metric(m, 100.0) for m in noisy])
    out = io.StringIO()
    assert bench_compare.compare_dirs(baseline, fresh, out=out) == 0
    assert "0 metrics compared" in out.getvalue()


def test_missing_fresh_file_fails(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("t.median", 1.0)])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 1


def test_missing_metric_fails(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("t.median", 1.0)])
    _write(fresh, "BENCH_x.json", [_metric("other.median", 1.0)])
    out = io.StringIO()
    assert bench_compare.compare_dirs(baseline, fresh, out=out) == 1
    assert "MISSING" in out.getvalue()


def test_config_distinguishes_metrics(dirs):
    """Same metric name under different configs compares pairwise."""
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [
        _metric("e.value", 1.0, {"k": "6"}),
        _metric("e.value", 2.0, {"k": "12"}),
    ])
    _write(fresh, "BENCH_x.json", [
        _metric("e.value", 2.0, {"k": "12"}),
        _metric("e.value", 1.0, {"k": "6"}),
    ])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 0


def test_repeated_rows_keyed_by_occurrence(dirs):
    """Per-row experiment metrics sharing a config pair up in order."""
    baseline, fresh = dirs
    rows = [_metric("e.share", v, {"id": "fig"}) for v in (0.1, 0.2, 0.3)]
    _write(baseline, "BENCH_x.json", rows)
    _write(fresh, "BENCH_x.json", list(rows))
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 0
    # A swap of row order is a real mismatch, not silently matched.
    _write(fresh, "BENCH_x.json", list(reversed(rows)))
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) > 0


def test_zero_baseline_requires_zero_fresh(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("e.zero", 0.0)])
    _write(fresh, "BENCH_x.json", [_metric("e.zero", 0.0)])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 0
    _write(fresh, "BENCH_x.json", [_metric("e.zero", 0.01)])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 1


def test_equal_infinite_values_pass(dirs):
    """An unbounded CI (inf) in both baseline and fresh is not drift."""
    baseline, fresh = dirs
    _write(baseline, "BENCH_x.json", [_metric("e.ci_high", float("inf"))])
    _write(fresh, "BENCH_x.json", [_metric("e.ci_high", float("inf"))])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 0
    # An infinite baseline collapsing to a finite value is real drift.
    _write(fresh, "BENCH_x.json", [_metric("e.ci_high", 1.0e6)])
    assert bench_compare.compare_dirs(baseline, fresh, out=io.StringIO()) == 1


def test_committed_baselines_pass_against_themselves():
    """The repo's own baselines always gate-pass when nothing changed."""
    results = pathlib.Path(__file__).resolve().parents[2] / "results"
    if not list(results.glob("BENCH_*.json")):
        pytest.skip("no committed baselines present")
    assert bench_compare.compare_dirs(results, results, out=io.StringIO()) == 0
    assert bench_compare.main(
        ["--baseline", str(results), "--fresh", str(results)]
    ) == 0
