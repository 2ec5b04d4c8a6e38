#!/usr/bin/env python3
"""Perf-regression gate: compare fresh BENCH_*.json against baselines.

Every ``benchmarks/bench_<name>.py`` module emits a machine-readable
``BENCH_<name>.json`` (see ``benchmarks/conftest.py``).  This tool
compares a directory of freshly generated files against the committed
baselines in ``results/`` and fails when a kept metric drifts outside
the tolerance band.

Which metrics are compared
    pytest-benchmark timing stats other than the median (``.min`` /
    ``.max`` / ``.mean`` / ``.stddev`` / ``.rounds``) are noisy across
    machines and are skipped.  ``.median`` timings and all experiment
    metrics saved through ``save_report`` are kept.  Experiment metrics
    are two-sided: drift in either direction fails.  The deterministic
    model outputs (``EXACT_PREFIXES``: simulator and analytic metrics,
    regenerated bit for bit) must match to ``EXACT_TOLERANCE``; the rest
    (the live ``ext_live_pipelining.*`` measurements) keep the band.
    ``.median`` timings are wall-clock seconds and one-sided: slower than
    the band fails, faster passes and is marked ``improved`` in the
    table, so a speed-up never forces a baseline refresh.  Records are
    keyed by
    ``(metric, sorted config items, occurrence index)`` so the same
    metric measured under different workload configs — or repeated
    per-row — compares against its true counterpart.

Usage::

    python tools/bench_compare.py --fresh /tmp/bench-out
    python tools/bench_compare.py --fresh results --tolerance 0.25

Exit status: 0 when every compared metric is within tolerance (or a
faster ``.median``), 1 on any slowdown or model-metric drift outside the
band or a missing counterpart file.  Comparing the baselines against
themselves is always a pass.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Default committed-baseline directory.
DEFAULT_BASELINE_DIR = REPO_ROOT / "results"

#: Relative drift allowed for kept metrics (0.25 == 25%).
DEFAULT_TOLERANCE = 0.25

#: Unstable pytest-benchmark stat suffixes, never compared.
SKIP_SUFFIXES = (".min", ".max", ".mean", ".stddev", ".rounds")

#: Wall-clock stat suffix: lower is better, so only a slowdown fails.
ONE_SIDED_SUFFIX = ".median"

#: Deterministic model metrics: compared two-sided at ``EXACT_TOLERANCE``,
#: never at the band (``--tolerance`` does not apply to them).
EXACT_PREFIXES = (
    "fig1.",
    "table1.",
    "table2.",
    "redundancy_matrix.",
    "durability_comparison.",
    "ext_fig8_qos.",
    "ablation_weights.",
    "theorem1.",
    "ablation_trees.",
    "fig7a.",
    "fig9.",
    "sec43_memory.",
)

#: Relative drift allowed for exact metrics: a constant, not a band.
EXACT_TOLERANCE = 1e-9

#: Baseline values this close to zero are compared absolutely instead.
_ABS_EPSILON = 1e-12

#: (metric name, frozen config, occurrence index) -> value
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...], int]


def load_metrics(path: pathlib.Path) -> "Dict[MetricKey, float]":
    """Keyed metric values from one BENCH_*.json file.

    Repeated (metric, config) pairs — e.g. per-row experiment columns
    that share a module config — are disambiguated by their occurrence
    index, which is stable because emission order is deterministic.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    metrics: "Dict[MetricKey, float]" = {}
    counts: "Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int]" = {}
    for record in payload.get("metrics", []):
        name = str(record["metric"])
        if name.endswith(SKIP_SUFFIXES):
            continue
        config = tuple(sorted(
            (str(k), str(v)) for k, v in (record.get("config") or {}).items()
        ))
        index = counts.get((name, config), 0)
        counts[(name, config)] = index + 1
        metrics[(name, config, index)] = float(record["value"])
    return metrics


def compare_file(
    baseline: pathlib.Path,
    fresh: pathlib.Path,
    tolerance: float,
) -> "Tuple[List[Dict[str, object]], int]":
    """Compare one fresh file against its baseline.

    Returns (rows for the delta table, number of failures).
    """
    base_metrics = load_metrics(baseline)
    fresh_metrics = load_metrics(fresh)
    rows: "List[Dict[str, object]]" = []
    failures = 0
    for key in sorted(base_metrics):
        name, config, index = key
        base_value = base_metrics[key]
        fresh_value = fresh_metrics.get(key)
        if fresh_value is None:
            rows.append({
                "metric": name, "config": config, "index": index,
                "baseline": base_value, "fresh": None,
                "delta_pct": None, "status": "MISSING",
            })
            failures += 1
            continue
        if not math.isfinite(base_value) or not math.isfinite(fresh_value):
            # Non-finite metrics (e.g. an unbounded MTTDL CI from a
            # zero-loss cell) compare by identity: inf == inf passes,
            # inf vs finite — or any nan — fails.
            ok = base_value == fresh_value
            delta_pct = 0.0 if ok else math.inf
        elif abs(base_value) <= _ABS_EPSILON:
            ok = abs(fresh_value) <= _ABS_EPSILON
            delta_pct = 0.0 if ok else math.inf
        else:
            delta_pct = (fresh_value - base_value) / abs(base_value) * 100.0
            allowed = (
                EXACT_TOLERANCE if name.startswith(EXACT_PREFIXES)
                else tolerance
            )
            ok = abs(delta_pct) <= allowed * 100.0
        if ok:
            status = "ok"
        elif name.endswith(ONE_SIDED_SUFFIX) and delta_pct < 0:
            status = "improved"
        else:
            status = "FAIL"
            failures += 1
        rows.append({
            "metric": name, "config": config, "index": index,
            "baseline": base_value, "fresh": fresh_value,
            "delta_pct": delta_pct, "status": status,
        })
    return rows, failures


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def _fmt_delta(delta) -> str:
    if delta is None:
        return "-"
    if math.isinf(delta):
        return "inf"
    return f"{delta:+.1f}%"


def render_table(slug: str, rows: "List[Dict[str, object]]") -> str:
    """The per-file delta table, failures and improvements always shown,
    passes elided beyond a short head so CI logs stay readable."""
    lines = [f"== {slug} =="]
    header = (
        f"  {'METRIC':<44} {'BASELINE':>12} {'FRESH':>12} "
        f"{'DELTA':>8}  STATUS"
    )
    lines.append(header)
    shown_ok = 0
    elided = 0
    for row in rows:
        if row["status"] == "ok":
            shown_ok += 1
            if shown_ok > 10:
                elided += 1
                continue
        label = row["metric"]
        if row["index"]:
            label = f"{label}#{row['index']}"
        lines.append(
            f"  {label:<44} {_fmt_value(row['baseline']):>12} "
            f"{_fmt_value(row['fresh']):>12} "
            f"{_fmt_delta(row['delta_pct']):>8}  {row['status']}"
        )
    if elided:
        lines.append(f"  ... {elided} more metrics within tolerance")
    return "\n".join(lines)


def compare_dirs(
    baseline_dir: pathlib.Path,
    fresh_dir: pathlib.Path,
    tolerance: float = DEFAULT_TOLERANCE,
    out=sys.stdout,
) -> int:
    """Compare every baseline BENCH_*.json against its fresh counterpart.

    Returns the total failure count (0 == gate passes).
    """
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    baselines = [p for p in baselines if not p.name.endswith(".trace.json")]
    if not baselines:
        print(f"no BENCH_*.json baselines in {baseline_dir}", file=out)
        return 1
    total_failures = 0
    compared = 0
    for baseline in baselines:
        fresh = fresh_dir / baseline.name
        slug = baseline.stem[len("BENCH_"):]
        if not fresh.exists():
            print(f"== {slug} ==\n  missing fresh file: {fresh}", file=out)
            total_failures += 1
            continue
        rows, failures = compare_file(baseline, fresh, tolerance)
        compared += len(rows)
        total_failures += failures
        print(render_table(slug, rows), file=out)
    verdict = "PASS" if total_failures == 0 else "FAIL"
    print(
        f"\nbench_compare: {compared} metrics compared, "
        f"{total_failures} outside tolerance ({tolerance:.0%} band, "
        f"{EXACT_TOLERANCE:g} on model metrics) -> {verdict}",
        file=out,
    )
    return total_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=DEFAULT_BASELINE_DIR,
        help="directory holding committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        required=True,
        help="directory holding freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative drift (default 0.25: +/-25%% on live "
        "metrics, +25%% on .median timings; model metrics always "
        f"{EXACT_TOLERANCE:g})",
    )
    args = parser.parse_args(argv)
    failures = compare_dirs(args.baseline, args.fresh, args.tolerance)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
