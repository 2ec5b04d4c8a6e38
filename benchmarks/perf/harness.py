"""Shared plumbing: the BENCHMARK.json contract, seeded inputs, windows.

A *window* is the timed part of a run.  It is made of timed segments
(one op, or one batch of ops for the two-client workload) separated by
untimed clean-up, so ``Window.wall`` holds only time in which the system
under test was doing measured work.
"""

from __future__ import annotations

import json
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.util.units import MB

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = ROOT / "results"

#: The seed numbers are quoted against, and the one a claim must also
#: hold on (choosing-metrics guide, section 6.3).
DEFAULT_SEED = 2016
ALTERNATE_SEED = 4242


def load_spec() -> "Dict[str, Any]":
    """BENCHMARK.json: the single list of metric names, units and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: "Dict[str, Any]", section: str) -> "Dict[str, str]":
    return {m["name"]: m["unit"] for m in spec[section]}


def random_bytes(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def percentile(samples: "Sequence[float]", q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(samples: "Sequence[float]") -> float:
    return float(statistics.median(samples))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB), in 10^6 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


class VerificationError(Exception):
    """An op completed but its output bytes were wrong."""


@dataclass
class Round:
    """One round of a window: the same work in every round of a workload."""

    #: Seconds inside timed segments, and process CPU over the same.
    wall: float = 0.0
    cpu: float = 0.0
    #: Verified ops, and their rebuilt / user-data bytes.
    ops: int = 0
    payload_bytes: float = 0.0
    #: Latency samples (seconds); a failed op has none.
    latencies: "List[float]" = field(default_factory=list)

    @property
    def wall_per_op(self) -> float:
        return self.wall / max(self.ops, 1)


@dataclass
class Window:
    """Everything one timed window measured, round by round."""

    rounds: "List[Round]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cells: "Dict[str, List[float]]" = field(
        default_factory=lambda: defaultdict(list)
    )
    #: Running sums behind the count-kind per-layer metrics.
    tallies: "Dict[str, float]" = field(
        default_factory=lambda: defaultdict(float)
    )
    errors: "List[str]" = field(default_factory=list)

    def new_round(self) -> Round:
        self.rounds.append(Round())
        return self.rounds[-1]

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.rounds)

    @property
    def ops(self) -> int:
        """Verified ops completed."""
        return sum(r.ops for r in self.rounds)

    @property
    def latencies(self) -> "List[float]":
        return [x for r in self.rounds for x in r.latencies]

    @property
    def wall_per_op(self) -> float:
        """Median over rounds: robust to a burst of machine noise."""
        return median([r.wall_per_op for r in self.rounds])

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(reason)


def end_to_end(
    window: Window, setup_samples: "Sequence[float]"
) -> "Dict[str, float]":
    """The end-to-end metrics of BENCHMARK.json from one untraced window.

    Each is the median over the window's rounds of that round's value:
    the sandbox slows down in bursts, and a burst should move one round,
    not the result.
    """
    rounds = [r for r in window.rounds if r.ops]

    def over_rounds(value) -> float:
        return median([value(r) for r in rounds])

    return {
        "setup_s": median(setup_samples),
        "ops_per_s": over_rounds(lambda r: r.ops / r.wall),
        "payload_mb_per_s": over_rounds(lambda r: r.payload_bytes / MB / r.wall),
        "op_p50_ms": over_rounds(lambda r: percentile(r.latencies, 50) * 1e3),
        "op_p90_ms": over_rounds(lambda r: percentile(r.latencies, 90) * 1e3),
        "cpu_ms_per_op": over_rounds(lambda r: r.cpu * 1e3 / r.ops),
        "peak_rss_mb": peak_rss_mb(),
    }
