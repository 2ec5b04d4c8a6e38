#!/usr/bin/env python3
"""GF kernel timing: encode, full decode and repair of two source trees.

Each of ``ROUNDS`` rounds runs one fresh ``--worker`` subprocess per
tree, alternating which tree goes first, so both see the same machine
state on average.
A worker imports ``repro`` from its tree's ``src/`` and times every case
warm (one untimed call first), as the median of repeated calls.  The
summary gives, per case, each tree's median over rounds, the parent's
inter-quartile range and the ratio change / parent (below 1 is faster).

Cases: ``encode`` and ``decode_data`` (data chunks 0 and 1 lost, the
same survivors every call) of rs(6,3), lrc(12,2,2) and rotrs(12,4) at
4 KiB-4 MiB chunks; rs(6,3) ``compute_partial`` (one helper's term) and
star ``RepairRecipe.execute`` (chunk 0 lost) at 64 KiB and 4 MiB.

Usage::

    python tools/gf_timing.py --parent ../parent --change .
    python tools/gf_timing.py --quick --json /tmp/gf.json

``--quick`` runs one round of the smallest chunk on this tree alone: a
plumbing check, not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CODES = ("rs(6,3)", "lrc(12,2,2)", "rotrs(12,4)")
SIZES = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)
REPAIR_SIZES = (64 << 10, 4 << 20)

#: Seconds of calls each case is timed for (at least three calls).
CASE_SECONDS = 0.1
#: Rounds of a two-tree comparison, each tree timed once a round.
ROUNDS = 10


def _label(size: int) -> str:
    return f"{size >> 20}M" if size >= 1 << 20 else f"{size >> 10}K"


def _median_call(call: Callable[[], object], seconds: float) -> float:
    call()  # warm: tables, plans, memos and scratch
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_cases(sizes, repair_sizes, seconds: float) -> Dict[str, float]:
    """Median seconds per call of every case, in the imported tree."""
    import numpy as np

    from repro.codes import make_code
    from repro.codes.recipe import compute_partial

    rng = np.random.default_rng(2016)
    results: Dict[str, float] = {}
    for spec in CODES:
        code = make_code(spec)
        for size in sizes:
            data = rng.integers(0, 256, (code.k, size), dtype=np.uint8)
            encoded = code.encode(data)
            alive = {i: encoded[i] for i in range(2, code.n)}
            results[f"encode {spec} {_label(size)}"] = _median_call(
                lambda: code.encode(data), seconds
            )
            results[f"decode {spec} {_label(size)}"] = _median_call(
                lambda: code.decode_data(alive), seconds
            )
    code = make_code("rs(6,3)")
    recipe = code.repair_recipe(0, range(1, code.n))
    for size in repair_sizes:
        data = rng.integers(0, 256, (code.k, size), dtype=np.uint8)
        encoded = code.encode(data)
        term = recipe.terms[0]
        payload = encoded[term.helper]
        results[f"partial rs(6,3) {_label(size)}"] = _median_call(
            lambda: compute_partial(term.entries, recipe.rows, payload), seconds
        )
        chunks = {h: encoded[h] for h in recipe.helpers}
        results[f"star rs(6,3) {_label(size)}"] = _median_call(
            lambda: recipe.execute(chunks), seconds
        )
    return results


def _worker(tree: pathlib.Path, quick: bool) -> Dict[str, float]:
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--worker"]
    if quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def _quartiles(values: List[float]) -> "tuple[float, float]":
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(samples: Dict[str, Dict[str, List[float]]]) -> Dict[str, dict]:
    """Per case: each tree's median, the parent's IQR and change/parent."""
    parent, change = samples.get("parent", {}), samples.get("change", {})
    summary = {}
    for case, runs in (parent or change).items():
        row = {"rounds": len(runs)}
        if parent:
            low, high = _quartiles(parent[case])
            row.update(parent_ms=statistics.median(parent[case]) * 1e3,
                       parent_iqr_ms=(high - low) * 1e3)
        if change:
            row["change_ms"] = statistics.median(change[case]) * 1e3
        if parent and change:
            row["ratio"] = row["change_ms"] / row["parent_ms"]
            row["slower_than_iqr"] = (
                row["change_ms"] - row["parent_ms"] > row["parent_iqr_ms"]
            )
        summary[case] = row
    return summary


def _print_table(summary: Dict[str, dict]) -> None:
    print(f"{'case':28} {'parent ms':>10} {'IQR ms':>8} {'change ms':>10} {'ratio':>6}")
    for case, row in summary.items():
        cells = [
            f"{row[key]:.3f}" if key in row else "-"
            for key in ("parent_ms", "parent_iqr_ms", "change_ms", "ratio")
        ]
        flag = "  SLOWER" if row.get("slower_than_iqr") else ""
        print(f"{case:28} {cells[0]:>10} {cells[1]:>8} {cells[2]:>10} {cells[3]:>6}{flag}")


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, help="parent source tree")
    parser.add_argument("--change", type=pathlib.Path, default=REPO_ROOT,
                        help="changed source tree (default: this one)")
    parser.add_argument("--quick", action="store_true",
                        help="one round, smallest chunk, this tree only")
    parser.add_argument("--json", type=pathlib.Path, help="write the summary here")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        if args.quick:
            cases = run_cases(SIZES[:1], REPAIR_SIZES[:1], seconds=0.0)
        else:
            cases = run_cases(SIZES, REPAIR_SIZES, CASE_SECONDS)
        json.dump(cases, sys.stdout)
        return 0
    trees = {"change": args.change}
    if args.parent is not None and not args.quick:
        trees["parent"] = args.parent
    rounds = 1 if args.quick else ROUNDS
    samples: Dict[str, Dict[str, List[float]]] = {name: {} for name in trees}
    for r in range(rounds):
        order = sorted(trees, reverse=bool(r % 2))
        for name in order:
            for case, seconds in _worker(trees[name], args.quick).items():
                samples[name].setdefault(case, []).append(seconds)
        print(f"round {r + 1}/{rounds} done ({' then '.join(order)})", file=sys.stderr)
    summary = summarize(samples)
    _print_table(summary)
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
