"""Measurement records produced by reconstructions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.metrics import PHASES, TrafficMatrix


@dataclass
class RepairResult:
    """Everything measured about one reconstruction.

    ``verified`` is True when the rebuilt bytes matched the ground-truth
    payload — every simulated repair is also a correctness check.
    """

    repair_id: str
    kind: str  # "repair" or "degraded_read"
    strategy: str  # a repro.repair.plan.STRATEGIES name
    code_name: str
    stripe_id: str
    lost_index: int
    chunk_size: float
    destination: str
    start_time: float
    end_time: float
    verified: bool
    cache_hits: int
    phase_busy: "Dict[str, float]"
    traffic: TrafficMatrix
    num_helpers: int
    #: §4.3: largest reconstruction buffer held at any single node.
    peak_buffer_bytes: float = 0.0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def phase_share(self, phase: str) -> float:
        """Busy time of a phase as a fraction of the end-to-end duration."""
        if self.duration <= 0:
            return 0.0
        return self.phase_busy.get(phase, 0.0) / self.duration

    def summary(self) -> str:
        phases = ", ".join(
            f"{name}={self.phase_busy.get(name, 0.0) * 1e3:.1f}ms"
            for name in PHASES
            if self.phase_busy.get(name, 0.0) > 0
        )
        return (
            f"[{self.strategy}] {self.code_name} {self.kind} of "
            f"{self.stripe_id}#{self.lost_index}: "
            f"{self.duration * 1e3:.1f}ms ({phases}) "
            f"verified={self.verified}"
        )


@dataclass
class BatchRepairResult:
    """m-PPR outcome for a batch of simultaneous reconstructions."""

    results: "List[RepairResult]" = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Wall time from first start to last completion."""
        if not self.results:
            return 0.0
        return max(r.end_time for r in self.results) - min(
            r.start_time for r in self.results
        )

    @property
    def mean_duration(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.duration for r in self.results) / len(self.results)

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.results)
