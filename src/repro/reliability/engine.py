"""The long-horizon Monte Carlo durability engine.

A genuinely different simulation regime from :mod:`repro.sim`: instead
of flow-level transfers over seconds, this engine walks *years* of
coarse-grained component events — disk deaths, machine reboots, rack
bursts, repair completions — over a population of stripes tracked as
numpy counters (:mod:`repro.reliability.stripes`).  Crucially it does
**not** re-simulate individual repairs; per-chunk repair durations come
from the calibrated closed forms in :mod:`repro.repair.theory` (Eq. 1
for traditional star repair, its Theorem-1/Table-2 PPR rewrite for
``ppr``/``mppr``), so the second-scale models feed the year-scale one.

Repairs drain through a bandwidth-limited queue: at most
``repair_slots`` disk reconstructions run concurrently, each slowed by
the contention factor of the scheme's :data:`repro.repair.plan.SCHEMES`
row when slots are shared (PPR spreads
its traffic across helpers — Table 1's per-server bandwidth column — so
concurrent PPR repairs collide less than star repairs; m-PPR's weighted
source/destination selection barely collides at all), and disks holding
chunks of CRITICAL stripes jump the queue.

Event kinds, all on one heap keyed ``(hours, seq)``:

* ``disk_fail`` — permanent loss of a disk and every chunk on it.
* ``detect`` — the meta-server notices (15 min default) and enqueues.
* ``repair_done`` — a queued disk reconstruction finished; counters
  roll back, the replacement disk draws a fresh lifetime.
* ``transient`` / ``machine_up`` — a machine drops and returns; its
  chunks are *unavailable* but not lost.
* ``burst`` — a rack-level shared-cause outage: every machine in the
  rack drops at once, each recovering on its own schedule (the model
  :class:`repro.workloads.failures.FailureTrace` injects at
  seconds-scale, replayed here at years-scale).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.redundancy.models import make_cost_model
from repro.repair import plan
from repro.reliability.hierarchy import Hierarchy
from repro.reliability.lifetimes import (
    HOURS_PER_YEAR,
    LifetimeModel,
    make_lifetime,
)
from repro.reliability.results import ReliabilityReport, TrialResult
from repro.reliability.stripes import StripeMap
from repro.util.units import Bandwidth, parse_size

#: Queue priorities: critical stripes first.
_PRIORITY_CRITICAL, _PRIORITY_NORMAL = 0, 1


@dataclass(frozen=True)
class ReliabilityConfig:
    """Everything one Monte Carlo run needs, with datacenter defaults."""

    code: str = "rs(6,3)"
    #: Any row of :data:`repro.repair.plan.SCHEMES`: it sets the step
    #: count that prices a repair and the contention factor.
    scheme: str = "ppr"
    #: Stripe placement regime (:data:`repro.reliability.stripes.
    #: PLACEMENTS`): ``random``/``sss`` spread maximally; ``copyset``/
    #: ``pss`` confine stripes to fixed disk groups.
    placement: str = "random"
    #: Target scatter width S for ``copyset`` (None -> 2*(n-1)).
    scatter_width: "Optional[int]" = None
    num_stripes: int = 10_000
    chunk_size: "int | str" = "64MiB"
    hierarchy: Hierarchy = field(default_factory=Hierarchy)
    #: Permanent disk failures (MTTF); accelerated default so a 10-year
    #: horizon exercises the loss machinery without 1e6 trials.
    disk_lifetime: "str | LifetimeModel" = "exp:3y"
    #: Transient machine unavailability (Rashmi et al.: ~50 events/day
    #: on a multi-thousand-node cluster ~= O(10)/machine-year).
    machine_transient_rate_per_year: float = 12.0
    machine_downtime: "str | LifetimeModel" = "exp:0.25h"
    #: Rack-correlated bursts (power/switch loss), per rack-year.
    burst_rate_per_rack_per_year: float = 0.5
    burst_downtime: "str | LifetimeModel" = "exp:1h"
    #: Failure-detection delay before a repair is enqueued (Google's
    #: 15-minute delayed-repair policy).
    detection_delay_hours: float = 0.25
    net_bandwidth: "float | str" = "1Gbps"
    io_bandwidth: "float | str" = "120MB/s"
    #: Jerasure-class SIMD decode throughput (~4 GB/s).
    compute_seconds_per_byte: float = 2.5e-10
    #: Concurrent disk reconstructions (the cluster's repair bandwidth).
    repair_slots: int = 8
    #: Pipeline depth for the ``chain`` scheme (ignored elsewhere).
    num_slices: int = 8
    #: Override the scheme's contention factor (None = scheme default).
    contention: "Optional[float]" = None
    #: "deterministic" uses the closed-form duration as-is;
    #: "exponential" samples an exponential with that mean — the mode
    #: that realizes the Markov chain of repro.reliability.markov.
    repair_jitter: str = "deterministic"
    #: Override the per-chunk repair duration entirely (validation runs).
    per_chunk_repair_hours: "Optional[float]" = None
    horizon_years: float = 10.0
    trials: int = 10
    #: Stop each trial at its first loss and report the absorption time
    #: (Markov-validation mode) instead of running the full horizon.
    until_loss: bool = False
    seed: int = 2016
    max_backlog_samples: int = 2048

    def validate(self) -> None:
        plan.scheme(self.scheme)
        if self.repair_jitter not in ("deterministic", "exponential"):
            raise ConfigurationError(
                f"repair_jitter must be deterministic or exponential, "
                f"got {self.repair_jitter!r}"
            )
        if self.num_stripes < 1 or self.trials < 1:
            raise ConfigurationError("need >= 1 stripe and >= 1 trial")
        if self.repair_slots < 1:
            raise ConfigurationError("need >= 1 repair slot")
        if self.num_slices < 1:
            raise ConfigurationError("need >= 1 slice")
        if self.horizon_years <= 0:
            raise ConfigurationError("horizon must be positive")


class ReliabilityEngine:
    """Runs ``config.trials`` independent trials and aggregates them."""

    def __init__(self, config: "Optional[ReliabilityConfig]" = None, **kw):
        config = config or ReliabilityConfig()
        if kw:
            config = replace(config, **kw)
        config.validate()
        self.config = config
        #: The repair-cost model: a wrapped byte-level code for
        #: implemented families, a cut-set-bound model for MSR/MBR.
        #: Exposes the same shape surface (n, k, fault_tolerance, name)
        #: the engine historically read off the ErasureCode.
        self.code = make_cost_model(config.code)
        if self.code.num_parity < 1:
            raise ConfigurationError(
                f"{self.code.name} has no parity; durability is zero"
            )
        self.m = self.code.fault_tolerance
        self.disk_lifetime = make_lifetime(config.disk_lifetime)
        self.machine_downtime = make_lifetime(config.machine_downtime)
        self.burst_downtime = make_lifetime(config.burst_downtime)
        self.contention = (
            config.contention
            if config.contention is not None
            else plan.scheme(config.scheme).contention
        )

    # ------------------------------------------------------------------
    # Repair pricing: the second-scale models feed the year-scale engine
    # ------------------------------------------------------------------
    def per_chunk_repair_hours(self) -> float:
        """Hours to reconstruct one chunk under the configured scheme.

        The cost model's repair-case mixture priced by the generalized
        Eq. (1) — for RS this reduces bit-identically to
        :func:`repro.repair.theory.reconstruction_time_estimate`
        (traditional/star) and its Theorem-1 PPR rewrite (ppr/mppr).
        """
        cfg = self.config
        if cfg.per_chunk_repair_hours is not None:
            return cfg.per_chunk_repair_hours
        chunk = float(parse_size(cfg.chunk_size))
        net = Bandwidth.of(cfg.net_bandwidth).bytes_per_sec
        io = Bandwidth.of(cfg.io_bandwidth).bytes_per_sec
        seconds = self.code.mean_repair_seconds(
            cfg.scheme, chunk, io, net, cfg.compute_seconds_per_byte,
            num_slices=cfg.num_slices,
        )
        return seconds / 3600.0

    def repair_traffic_chunks_for(self, failed: int) -> float:
        """Chunk-units moved to repair one chunk of an ``failed``-loss
        stripe (the code's γ for single losses, its conventional
        ``(k + f - 1)/f`` share under concurrent losses)."""
        return self.code.multi_failure_traffic(failed) / max(failed, 1)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> ReliabilityReport:
        """All trials, deterministically derived from ``config.seed``."""
        cfg = self.config
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
        trials: "List[TrialResult]" = []
        for index, child in enumerate(children):
            with obs.maybe_span(
                "reliability.trial", category="reliability",
                trial=index, scheme=cfg.scheme,
            ):
                trials.append(
                    self._run_trial(np.random.default_rng(child), index)
                )
        report = ReliabilityReport(
            code_name=self.code.name,
            scheme=cfg.scheme,
            m=self.m,
            per_chunk_repair_hours=self.per_chunk_repair_hours(),
            until_loss=cfg.until_loss,
            trials=trials,
            placement=cfg.placement,
        )
        self._export_metrics(report)
        return report

    def _export_metrics(self, report: ReliabilityReport) -> None:
        """Batch the run's totals into the process-wide obs registry.

        One update per run (not per event), so `repro trace prom` and the
        Prometheus exposition path see reliability.* series without the
        event loop paying per-event instrumentation costs.
        """
        reg = obs.registry()
        labels = {"scheme": report.scheme, "code": report.code_name}
        reg.counter("reliability.trials", **labels).inc(len(report.trials))
        reg.counter("reliability.losses", **labels).inc(report.total_losses)
        reg.counter("reliability.disk_failures", **labels).inc(
            sum(t.disk_failures for t in report.trials)
        )
        reg.counter("reliability.repairs_completed", **labels).inc(
            sum(t.repairs_completed for t in report.trials)
        )
        reg.gauge("reliability.stripe_years", **labels).set(
            report.total_stripe_years
        )
        reg.gauge("reliability.availability_nines", **labels).set(
            report.availability_nines()
        )
        mttdl_years = report.mttdl_years()[0]
        if mttdl_years != float("inf"):
            reg.gauge("reliability.mttdl_years", **labels).set(mttdl_years)

    # ------------------------------------------------------------------
    # One trial
    # ------------------------------------------------------------------
    def _run_trial(
        self, rng: np.random.Generator, trial_index: int
    ) -> TrialResult:
        cfg = self.config
        tree = cfg.hierarchy
        stripe_map = StripeMap.build(
            tree, self.code.n, cfg.num_stripes, rng,
            placement=cfg.placement, scatter_width=cfg.scatter_width,
        )
        by_disk = [
            stripe_map.stripes_on_disk(d) for d in range(tree.num_disks)
        ]
        machine_of_disk = tree.machine_of_disk()

        m = self.m
        horizon = cfg.horizon_years * HOURS_PER_YEAR
        t_chunk = self.per_chunk_repair_hours()
        chunk_bytes = float(parse_size(cfg.chunk_size))
        # Chunk-units moved per repaired chunk, by the stripe's current
        # failure count (index f; f = 0 is padding).
        traffic_by_failed = np.array(
            [0.0] + [
                self.repair_traffic_chunks_for(f) for f in range(1, m + 1)
            ]
        )

        # Mutable per-stripe counters.
        failed = np.zeros(cfg.num_stripes, dtype=np.int16)
        down = np.zeros(cfg.num_stripes, dtype=np.int16)
        lost = np.zeros(cfg.num_stripes, dtype=bool)

        # Component state.
        disk_alive = np.ones(tree.num_disks, dtype=bool)
        machine_down: "Dict[int, List[int]]" = {}  # machine -> counted disks

        # Piecewise-constant aggregates and their integrals.
        state = _TrialState()

        # Event heap and repair queue.
        seq = itertools.count()
        heap: "List[Tuple[float, int, str, int]]" = []

        def push(time_hours: float, kind: str, arg: int) -> None:
            heapq.heappush(heap, (time_hours, next(seq), kind, arg))

        repair_queue: "List[Tuple[int, int, int]]" = []  # (prio, seq, disk)
        queue_priority: "Dict[int, int]" = {}  # disk -> freshest priority
        repairing: "Dict[int, float]" = {}  # disk -> started hours
        result = TrialResult(
            trial=trial_index, hours=0.0, num_stripes=cfg.num_stripes,
            losses=0,
        )
        backlog_stride = 1

        # ---------------- aggregate bookkeeping helpers ----------------
        def apply_delta(stripes: np.ndarray, which: np.ndarray,
                        delta: int) -> np.ndarray:
            """Shift failed/down counters on not-lost stripes; track the
            unavailable-stripe crossing count.  Returns affected rows."""
            idx = stripes[~lost[stripes]]
            if idx.size == 0:
                return idx
            before = (failed[idx] + down[idx]) > m
            which[idx] += delta
            after = (failed[idx] + down[idx]) > m
            state.unavailable += int(after.sum()) - int(before.sum())
            if which is failed:
                state.failed_chunks += delta * int(idx.size)
            return idx

        def advance(now: float) -> None:
            dt = now - state.clock
            if dt > 0:
                result.exposure_chunk_hours += state.failed_chunks * dt
                result.unavailable_stripe_hours += (
                    (state.unavailable + state.lost) * dt
                )
                state.clock = now

        def sample_backlog(now: float) -> None:
            nonlocal backlog_stride
            depth = len(queue_priority) + len(repairing)
            result.max_backlog = max(result.max_backlog, depth)
            state.backlog_tick += 1
            if state.backlog_tick % backlog_stride:
                return
            result.backlog.append((now, depth))
            if len(result.backlog) > cfg.max_backlog_samples:
                result.backlog = result.backlog[::2]
                backlog_stride *= 2

        # ---------------- repair queue ----------------
        def enqueue_repair(now: float, disk: int) -> None:
            if disk in repairing or not heap_guard(disk):
                return
            priority = disk_priority(disk)
            queue_priority[disk] = priority
            heapq.heappush(repair_queue, (priority, next(seq), disk))
            sample_backlog(now)
            dispatch(now)

        def heap_guard(disk: int) -> bool:
            # A disk revived by a completed repair needs no new job.
            return not disk_alive[disk]

        def disk_priority(disk: int) -> int:
            idx = by_disk[disk]
            idx = idx[~lost[idx]]
            if idx.size and bool((failed[idx] >= m).any()):
                return _PRIORITY_CRITICAL
            return _PRIORITY_NORMAL

        def escalate(stripes: np.ndarray) -> None:
            """Newly-critical stripes bump their failed disks' queue
            entries to the critical priority (stale entries are skipped
            at pop time)."""
            for stripe in stripes.tolist():
                for disk in stripe_map.disk_of[stripe].tolist():
                    if (
                        disk in queue_priority
                        and queue_priority[disk] != _PRIORITY_CRITICAL
                    ):
                        queue_priority[disk] = _PRIORITY_CRITICAL
                        heapq.heappush(
                            repair_queue,
                            (_PRIORITY_CRITICAL, next(seq), disk),
                        )

        def dispatch(now: float) -> None:
            while len(repairing) < cfg.repair_slots and repair_queue:
                priority, _, disk = heapq.heappop(repair_queue)
                if queue_priority.get(disk) != priority:
                    continue  # stale entry (escalated or already running)
                del queue_priority[disk]
                idx = by_disk[disk]
                live = idx[~lost[idx]]
                chunks = int(live.size)
                counts = np.clip(failed[live], 0, m)
                result.repair_traffic_bytes += float(
                    traffic_by_failed[counts].sum() * chunk_bytes
                )
                active_before = len(repairing)
                base = max(chunks, 1) * t_chunk
                duration = base * (1.0 + self.contention * active_before)
                if cfg.repair_jitter == "exponential":
                    duration = float(rng.exponential(duration))
                repairing[disk] = now
                push(now + duration, "repair_done", disk)
                sample_backlog(now)

        # ---------------- machine availability ----------------
        def machine_down_event(now: float, machine: int,
                               downtime_model: LifetimeModel) -> None:
            if machine in machine_down:
                return
            counted: "List[int]" = []
            for disk in tree.disks_of_machine(machine).tolist():
                if disk_alive[disk]:
                    apply_delta(by_disk[disk], down, +1)
                    counted.append(disk)
            machine_down[machine] = counted
            result.machine_downs += 1
            push(now + downtime_model.sample(rng), "machine_up", machine)

        # ---------------- seeding the processes ----------------
        for disk in range(tree.num_disks):
            push(self.disk_lifetime.sample(rng), "disk_fail", disk)
        transient_rate = cfg.machine_transient_rate_per_year / HOURS_PER_YEAR
        if transient_rate > 0:
            for machine in range(tree.num_machines):
                push(
                    float(rng.exponential(1.0 / transient_rate)),
                    "transient", machine,
                )
        burst_rate = cfg.burst_rate_per_rack_per_year / HOURS_PER_YEAR
        if burst_rate > 0:
            for rack in range(tree.racks):
                push(
                    float(rng.exponential(1.0 / burst_rate)),
                    "burst", rack,
                )

        # ---------------- the event loop ----------------
        stop_at = horizon
        while heap:
            now, _, kind, arg = heapq.heappop(heap)
            if now >= stop_at:
                break
            advance(now)

            if kind == "disk_fail":
                disk = arg
                if not disk_alive[disk]:
                    continue
                disk_alive[disk] = False
                result.disk_failures += 1
                machine = int(machine_of_disk[disk])
                counted = machine_down.get(machine)
                if counted is not None and disk in counted:
                    # The chunks just became *failed*; stop also counting
                    # them as transiently down (no double exposure).
                    counted.remove(disk)
                    apply_delta(by_disk[disk], down, -1)
                idx = apply_delta(by_disk[disk], failed, +1)
                newly_lost = idx[failed[idx] > m]
                if newly_lost.size:
                    lost[newly_lost] = True
                    state.lost += int(newly_lost.size)
                    state.unavailable -= int(newly_lost.size)
                    state.failed_chunks -= int(failed[newly_lost].sum())
                    result.losses += int(newly_lost.size)
                    # One *event* per causing failure, however many
                    # stripes it takes out — the quantity copyset
                    # placement trades per-event blast radius against.
                    result.loss_events += 1
                    if result.first_loss_hours is None:
                        result.first_loss_hours = now
                    if cfg.until_loss:
                        stop_at = now
                        break
                newly_critical = idx[failed[idx] == m]
                if newly_critical.size:
                    escalate(newly_critical)
                push(now + cfg.detection_delay_hours, "detect", disk)

            elif kind == "detect":
                enqueue_repair(now, arg)

            elif kind == "repair_done":
                disk = arg
                started = repairing.pop(disk)
                result.repairs_completed += 1
                result.repair_hours += now - started
                apply_delta(by_disk[disk], failed, -1)
                disk_alive[disk] = True
                push(
                    now + self.disk_lifetime.sample(rng), "disk_fail", disk
                )
                sample_backlog(now)
                dispatch(now)

            elif kind == "transient":
                machine = arg
                machine_down_event(now, machine, self.machine_downtime)
                push(
                    now + float(rng.exponential(1.0 / transient_rate)),
                    "transient", machine,
                )

            elif kind == "machine_up":
                machine = arg
                for disk in machine_down.pop(machine, []):
                    apply_delta(by_disk[disk], down, -1)

            elif kind == "burst":
                rack = arg
                result.bursts += 1
                for machine in tree.machines_of_rack(rack).tolist():
                    machine_down_event(now, machine, self.burst_downtime)
                push(
                    now + float(rng.exponential(1.0 / burst_rate)),
                    "burst", rack,
                )

        advance(stop_at if not heap or not cfg.until_loss else stop_at)
        result.hours = stop_at
        return result


@dataclass
class _TrialState:
    """Piecewise-constant aggregates between events."""

    clock: float = 0.0
    #: Failed chunks over not-lost stripes (exposure integrand).
    failed_chunks: int = 0
    #: Not-lost stripes with failed + down > m (availability integrand).
    unavailable: int = 0
    #: Stripes in the absorbing LOST state (always unavailable).
    lost: int = 0
    backlog_tick: int = 0
