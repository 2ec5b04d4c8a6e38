"""Run the benchmark: ``python3 benchmarks/perf/run.py`` (or ``-m``).

With ``--workload`` this process runs that one workload and prints, as
its last line, the JSON object BENCHMARK.json's contract asks for.
Without it, every workload runs in a fresh subprocess of this same file
and the results are tabulated.  README.md has the details.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"benchmarks/perf: no src/repro or BENCHMARK.json under {ROOT}")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import harness  # noqa: E402 - needs the path set above
from benchmarks.perf.harness import RESULTS_DIR  # noqa: E402
from repro.util.units import MB  # noqa: E402

#: Complete set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Shares of ``--seconds`` a traced run gives its untraced reference
#: window, its traced window, and each window of a workload's extra runs.
TRACED_SHARE = 0.4
EXTRA_SHARE = 0.2
QUICK_SCALE = 0.05
MIN_COVERAGE = 0.9
#: Per-layer metrics that are counts read from the program: they must be
#: identical between two runs of one commit on one seed.
EXACT = (
    "wire.frames_per_op",
    "coordinator.replans_per_op",
    "repair.traffic_bytes_per_payload_byte",
    "repair.max_ingress_bytes_per_payload_byte",
    "sim.events_per_repair",
    "sim.virtual_total_s",
)

Result = Dict[str, Any]


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_untraced(workload, seconds: float, setups: int) -> "Tuple[Dict[str, float], harness.Window]":
    for _ in range(setups - 1):
        workload.setup()
        workload.teardown()
        # Clusters are cyclic garbage; whether one is still around when the
        # next is built would make peak RSS a coin toss.
        gc.collect()
    workload.setup()
    window = workload.measure(seconds)
    workload.teardown()
    if not window.ops:
        sys.exit(f"{workload.name}: no op succeeded: {window.errors}")
    return harness.end_to_end(window, workload.setup_samples), window


def run_traced(workload, seconds: float, names: "List[str]") -> "Tuple[Dict[str, float], harness.Window]":
    from benchmarks.perf.ladder import run_ladder
    from benchmarks.perf.spans import Recorder
    from benchmarks.perf.workloads import LARGE_CHUNK

    recorder = Recorder()
    workload.setup()
    plain = workload.measure(seconds * TRACED_SHARE)
    recorder.install()
    try:
        traced = workload.measure(seconds * TRACED_SHARE, recorder)
    finally:
        recorder.uninstall()
    if not plain.ops or not traced.ops:
        sys.exit(f"{workload.name}: no op succeeded: {plain.errors + traced.errors}")
    extras = workload.extra_layer_metrics(seconds * EXTRA_SHARE)
    workload.teardown()

    # A metric of a layer or cell this workload never enters reads 0.
    metrics = dict.fromkeys(names, 0.0)
    metrics.update(workload.layer_metrics(plain))
    metrics.update(recorder.metrics(traced.ops))
    metrics.update(extras)
    metrics["bench.trace_overhead_frac"] = (
        traced.wall_per_op / plain.wall_per_op - 1.0
    )
    metrics.update(run_ladder(workload.seed))

    def ratio(top: str, bottom: str) -> float:
        return metrics[top] / metrics[bottom] if metrics[bottom] else 0.0

    metrics["coordinator.slicing_gain"] = ratio(
        "coordinator.ppr_s1_p50_ms", "coordinator.ppr_s16_p50_ms"
    )
    metrics["coordinator.ppr_vs_star"] = ratio(
        "coordinator.star_s1_p50_ms", "coordinator.ppr_s1_p50_ms"
    )
    # Pipelined-chain model (D+S-1)*C/(S*B): D = k = 6 hops, S = 16, and
    # B the measured goodput of one stream hop on this box.
    model_ms = (6 + 16 - 1) * LARGE_CHUNK / (
        16 * metrics["rpc.stream_mb_per_s"] * MB
    ) * 1e3
    metrics["coordinator.model_gap"] = (
        metrics["coordinator.chain_s16_p50_ms"] / model_ms
    )

    unknown = sorted(set(metrics) - set(names))
    if unknown:
        sys.exit(f"{workload.name}: metrics missing from BENCHMARK.json: {unknown}")
    RESULTS_DIR.mkdir(exist_ok=True)
    recorder.write_chrome_trace(RESULTS_DIR / f"perf_{workload.name}.trace.json")
    # The result line counts the ops of both windows.
    plain.rounds += traced.rounds
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.errors += traced.errors
    return metrics, plain


def run_workload(args: argparse.Namespace, spec: Result) -> int:
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    seconds = args.seconds * (QUICK_SCALE if args.quick else 1.0)
    section = "per_layer" if args.trace else "end_to_end"
    units = harness.metric_units(spec, section)
    if args.trace:
        values, window = run_traced(workload, seconds, list(units))
    else:
        values, window = run_untraced(
            workload, seconds, 1 if args.quick else SETUPS
        )
    result: Result = {
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    record = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        seconds=seconds,
        trace=args.trace,
        comparable=not args.quick,
        latency_samples=len(window.latencies),
        setup_samples=len(workload.setup_samples),
        errors=window.errors,
    )
    out = args.out or RESULTS_DIR / (
        f"perf_{workload.name}{'.layers' if args.trace else ''}.json"
    )
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(
        f"# {workload.name} seed={args.seed} seconds={seconds:g} "
        f"trace={args.trace} comparable={not args.quick} "
        f"ops={window.ops}/{window.attempted} "
        f"latency_samples={len(window.latencies)}"
    )
    for name, unit in units.items():
        print(f"{name:<48}{values[name]:>16.4f} {unit}")
    for error in window.errors:
        print(f"! {error}")
    print(json.dumps(result))
    return 0 if window.failed == 0 else 1


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_child(
    name: str, args: argparse.Namespace, trace: int
) -> "Optional[Result]":
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"! {name} trace={trace} exited {done.returncode}")
        print(done.stdout + done.stderr)
        return None
    return json.loads(lines[-1])


def run_set(
    names: "List[str]", args: argparse.Namespace, trace: int
) -> "Dict[str, Optional[Result]]":
    return {name: run_child(name, args, trace) for name in names}


def print_table(
    results: "Dict[str, Optional[Result]]", units: "Dict[str, str]"
) -> None:
    names = list(results)
    print(f"{'metric':<46}{'unit':<10}" + "".join(f"{n:>20}" for n in names))
    for metric, unit in units.items():
        cells = []
        for name in names:
            got = results[name]
            value = got["metrics"].get(metric) if got else None
            cells.append(f"{value['value']:>20.4f}" if value else f"{'-':>20}")
        print(f"{metric:<46}{unit:<10}" + "".join(cells))
    cells = [
        f"{got['failed']}/{got['attempted']}" if got else "-"
        for got in results.values()
    ]
    print(f"{'failed/attempted':<56}" + "".join(f"{c:>20}" for c in cells))


def self_check(
    results: "Dict[str, Optional[Result]]", units: "Dict[str, str]", trace: int
) -> "List[str]":
    """Every named metric emitted with its unit, nothing failed, and the
    traced large repair attributed to layer spans."""
    problems = []
    for name, got in results.items():
        if got is None:
            problems.append(f"{name}: no result")
            continue
        emitted = {m: v["unit"] for m, v in got["metrics"].items()}
        if emitted != units:
            problems.append(f"{name}: metrics differ from BENCHMARK.json")
        if got["failed"] or not got["correct"]:
            problems.append(f"{name}: {got['failed']} of {got['attempted']} ops failed")
        if trace and name == "live_repair_large":
            coverage = got["metrics"]["bench.trace_coverage_frac"]["value"]
            if coverage < MIN_COVERAGE:
                problems.append(f"{name}: trace coverage {coverage:.3f} < {MIN_COVERAGE}")
    return problems


def check_agreement(
    first: "Dict[str, Optional[Result]]",
    second: "Dict[str, Optional[Result]]",
    spec: Result,
    trace: int,
) -> "List[str]":
    """Two sets of runs of one commit, side by side.

    End-to-end metrics must agree within their own bound, else the
    benchmark cannot resolve a change of that size (UNRESOLVED); count
    metrics must be identical.
    """
    problems = []
    if trace:
        bounds = dict.fromkeys(EXACT, 0.0)
    else:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<20}{'metric':<44}{'first':>14}{'second':>14}{'gap':>9}")
    for name in first:
        one, two = first[name], second[name]
        if one is None or two is None:
            continue
        for metric, bound in bounds.items():
            a = one["metrics"][metric]["value"]
            b = two["metrics"][metric]["value"]
            gap = abs(b - a) / abs(a) if a else float(b != a)
            verdict = "PASS" if gap <= bound else "UNRESOLVED"
            print(f"{name:<20}{metric:<44}{a:>14.4f}{b:>14.4f}{gap:>8.1%} {verdict}")
            if verdict != "PASS":
                problems.append(f"{name} {metric}: gap {gap:.1%} > {bound:.0%}")
    return problems


def run_suite(args: argparse.Namespace, spec: Result) -> int:
    names = [w["name"] for w in spec["workloads"]]
    problems: "List[str]" = []
    record: Result = {"seed": args.seed, "comparable": not args.quick}
    for trace in (0, 1) if args.traced else (0,):
        section = "per_layer" if trace else "end_to_end"
        units = harness.metric_units(spec, section)
        results = run_set(names, args, trace)
        print_table(results, units)
        problems += self_check(results, units, trace)
        record[section] = results
        if args.check_agreement:
            # Second set in the opposite order, so drift over the session
            # cannot line up with one workload.
            again = run_set(names[::-1], args, trace)
            problems += check_agreement(results, again, spec, trace)
            record[section + "_again"] = again
    out = Path(args.out or RESULTS_DIR / "perf_suite.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"! {problem}")
    print("OK" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: "Optional[List[str]]" = None) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names,
                        help="run this workload here (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and the ladder (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: also make the traced runs")
    parser.add_argument("--check-agreement", action="store_true",
                        help="all workloads: run every set twice and compare")
    parser.add_argument("--quick", action="store_true",
                        help="plumbing check at 5%% length; numbers are not comparable")
    parser.add_argument("--out", help="result file (default: results/perf_*.json)")
    args = parser.parse_args(argv)
    if args.workload:
        args.trace = int(args.trace or args.traced)
        return run_workload(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
