"""m-PPR: scheduling multiple concurrent reconstructions (§5, Algorithm 1).

The Repair-Manager keeps a queue of missing chunks and greedily schedules
each reconstruction, choosing:

* the best ``k`` *source* servers by Eq. (2)::

      w_src = a1*hasCache - a2*#reconstructions - a3*userLoad

* the best *destination* by Eq. (3) among reliability-eligible servers::

      w_dst = -(b1*#repairDsts + b2*userLoad)

Coefficient calibration follows §5: ``a2 = b1 = 1``;
``a1 = alpha * ceil(log2(k+1)) / beta`` where ``alpha`` is the fractional
time saved by a cache hit and ``beta`` the network share of a PPR repair;
``a2/a3 = b1/b2 = C_MB * ceil(log2 k)`` (user load measured in MB).  For
RS(6,3), 64 MB chunks and 1 Gbps links this yields a3 = 1/192 ≈ 0.005,
matching the paper's worked example.

Server state (cache contents, user load) comes from heartbeats and is
therefore *stale* by up to one heartbeat interval, exactly as §5 accepts;
in-flight repair counts are the RM's own bookkeeping and are fresh.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from repro import obs
from repro.errors import (
    ConfigurationError,
    SchedulingError,
    UnrecoverableError,
)
from repro.core.coordinator import RepairCoordinator
from repro.core.results import BatchRepairResult, RepairResult
from repro.fs.chunks import Stripe
from repro.util.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import RepairContext
    from repro.fs.cluster import StorageCluster


@dataclass(frozen=True)
class MPPRConfig:
    """Tunables of the m-PPR scheduler."""

    strategy: str = "ppr"
    #: Reconstructions a repair is allowed to run before being rescheduled
    #: with fresh servers (§5 "Staleness": the RM monitors scheduled
    #: reconstructions and reschedules stragglers).
    repair_timeout: float = 60.0
    #: Maximum reschedule attempts per chunk before giving up.
    max_retries: int = 5
    #: Delay before retrying chunks that could not be scheduled.
    retry_delay: float = 5.0
    #: alpha of §5: fractional total-time saving from a source cache hit.
    alpha: float = 0.12
    #: beta of §5: network share of a PPR reconstruction.
    beta: float = 0.7
    a2: float = 1.0
    b1: float = 1.0
    #: Pipelining factor applied to every scheduled reconstruction.
    num_slices: int = 1
    #: §4.2 extension: put fast servers at busy PPR tree positions.
    capacity_aware: bool = False
    #: "mppr" applies Eqs. (2)/(3); "uniform" zeroes every weight so
    #: server choice degrades to the deterministic tie-break order —
    #: the load-blind baseline of the Fig. 8/9 QoS comparison.
    weighting: str = "mppr"

    def __post_init__(self) -> None:
        if self.weighting not in ("mppr", "uniform"):
            raise ConfigurationError(
                f"weighting must be 'mppr' or 'uniform', got "
                f"{self.weighting!r}"
            )


class RepairManager:
    """The centralized Repair-Manager (lives in the Meta-Server)."""

    def __init__(
        self, cluster: "StorageCluster", config: "Optional[MPPRConfig]" = None
    ):
        self.cluster = cluster
        self.config = config or MPPRConfig()
        self.coordinator = RepairCoordinator(cluster)
        self.queue: "Deque[tuple[str, int]]" = deque()  # (chunk_id, retries)
        self.inflight: "Dict[str, RepairContext]" = {}  # chunk_id -> context
        self.completed: "List[RepairResult]" = []
        self.failed_chunks: "List[str]" = []
        #: RM-fresh counters layered over stale heartbeat data.
        self._src_load: "Dict[str, int]" = {}
        self._dst_load: "Dict[str, int]" = {}
        self._retry_armed = False
        self._schedule_armed = False

    # ------------------------------------------------------------------
    # Coefficients (§5 "Choosing the coefficients")
    # ------------------------------------------------------------------
    def coefficients(self, k: int, chunk_size: float) -> "Dict[str, float]":
        """Eq. (2)/(3) coefficients for a (k, m) stripe of ``chunk_size``."""
        cfg = self.config
        steps = math.ceil(math.log2(k + 1))
        a1 = cfg.alpha * steps / cfg.beta * cfg.a2
        chunk_mb = max(chunk_size / MB, 1e-9)
        denom = chunk_mb * max(1.0, math.ceil(math.log2(max(k, 2))))
        a3 = cfg.a2 / denom
        b2 = cfg.b1 / denom
        return {"a1": a1, "a2": cfg.a2, "a3": a3, "b1": cfg.b1, "b2": b2}

    # ------------------------------------------------------------------
    # Weights (Eqs. 2 and 3)
    # ------------------------------------------------------------------
    def source_weight(
        self, server_id: str, chunk_id: str, coeff: "Dict[str, float]"
    ) -> float:
        if self.config.weighting == "uniform":
            return 0.0
        beat = self.cluster.metaserver.heartbeat_view(server_id)
        has_cache = 1.0 if beat and chunk_id in beat.cached_chunk_ids else 0.0
        user_load_mb = (beat.user_load_bytes / MB) if beat else 0.0
        reconstructions = self._src_load.get(server_id, 0)
        if beat:
            reconstructions = max(reconstructions, beat.active_reconstructions)
        return (
            coeff["a1"] * has_cache
            - coeff["a2"] * reconstructions
            - coeff["a3"] * user_load_mb
        )

    def destination_weight(
        self, server_id: str, coeff: "Dict[str, float]"
    ) -> float:
        if self.config.weighting == "uniform":
            return 0.0
        beat = self.cluster.metaserver.heartbeat_view(server_id)
        user_load_mb = (beat.user_load_bytes / MB) if beat else 0.0
        repair_dsts = self._dst_load.get(server_id, 0)
        if beat:
            repair_dsts = max(repair_dsts, beat.active_repair_destinations)
        return -(coeff["b1"] * repair_dsts + coeff["b2"] * user_load_mb)

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def enqueue_missing(self, chunk_ids: "List[str]") -> None:
        """Add missing chunks and schedule the batch.

        Scheduling is deferred by one (zero-delay) event so that multiple
        failures detected at the same instant — e.g. several servers of a
        rack dying together — are planned as one batch against the final
        liveness picture, instead of the first repair picking helpers on a
        server that is about to be declared dead.
        """
        for chunk_id in chunk_ids:
            if chunk_id in self.inflight:
                continue
            if any(cid == chunk_id for cid, _ in self.queue):
                continue
            self.queue.append((chunk_id, 0))
        if self.queue and not self._schedule_armed:
            self._schedule_armed = True

            def run() -> None:
                self._schedule_armed = False
                self.schedule_pending()

            self.cluster.sim.schedule(0.0, run)

    def schedule_pending(self) -> None:
        """Algorithm 1: pop chunks and greedily schedule reconstructions."""
        requeue: "List[tuple[str, int]]" = []
        while self.queue:
            chunk_id, retries = self.queue.popleft()
            try:
                self._schedule_one(chunk_id, retries)
            except (SchedulingError, UnrecoverableError):
                if retries + 1 >= self.config.max_retries:
                    self.failed_chunks.append(chunk_id)
                    if obs.tracer() is not None:
                        obs.registry().counter("mppr.chunks.failed").inc()
                else:
                    requeue.append((chunk_id, retries + 1))
        self.queue.extend(requeue)
        if self.queue and not self._retry_armed:
            # Re-attempt unschedulable chunks after a back-off; servers may
            # have recovered or load may have drained by then.
            self._retry_armed = True

            def retry() -> None:
                self._retry_armed = False
                self.schedule_pending()

            self.cluster.sim.schedule(self.config.retry_delay, retry)

    # ------------------------------------------------------------------
    # Selection (SELECTSOURCES / SELECTDESTINATION of Algorithm 1)
    # ------------------------------------------------------------------
    def select_sources(
        self, stripe: Stripe, lost_index: int, chunk_size: float
    ) -> "List[int]":
        """Pick helper chunk indices, best source weights first.

        Grows the weight-ordered candidate set until the code can build a
        repair equation from it (k servers for MDS codes; fewer for codes
        with locality).
        """
        meta = self.cluster.metaserver
        available = meta.alive_host_indices(stripe)
        available.pop(lost_index, None)
        if not available:
            raise SchedulingError(
                f"no sources for {stripe.stripe_id}#{lost_index}"
            )
        coeff = self.coefficients(stripe.code.k, chunk_size)
        ordered = sorted(
            available.items(),
            key=lambda item: self.source_weight(
                item[1], stripe.chunk_ids[item[0]], coeff
            ),
            reverse=True,
        )
        chosen: "List[int]" = []
        for index, _server in ordered:
            chosen.append(index)
            try:
                stripe.code.repair_recipe(lost_index, chosen)
                return chosen
            except UnrecoverableError:
                continue
        raise SchedulingError(
            f"survivors cannot rebuild {stripe.stripe_id}#{lost_index}"
        )

    def select_destination(
        self,
        stripe: Stripe,
        chunk_size: float,
        source_indices: "Optional[List[int]]" = None,
    ) -> str:
        """Pick the repair site among reliability-eligible servers."""
        meta = self.cluster.metaserver
        hosts = [
            host
            for host in (
                meta.locate_chunk(cid) for cid in stripe.chunk_ids
            )
            if host is not None
        ]
        alive = self.cluster.alive_servers()
        eligible = self.cluster.placement.eligible_destinations(alive, hosts)
        if not eligible:
            # Small clusters: relax the domain constraints but never pick a
            # server already holding a chunk of this stripe.
            eligible = [s for s in alive if s not in hosts]
        if not eligible and source_indices is not None:
            # Wide stripes on small clusters: only exclude the servers
            # actually serving as repair sources.
            source_hosts = {
                self._host_of(stripe, i) for i in source_indices
            }
            eligible = [s for s in alive if s not in source_hosts]
        if not eligible:
            raise SchedulingError(
                f"no eligible destination for {stripe.stripe_id}"
            )
        coeff = self.coefficients(stripe.code.k, chunk_size)
        return max(
            eligible, key=lambda s: self.destination_weight(s, coeff)
        )

    # ------------------------------------------------------------------
    # Scheduling one reconstruction
    # ------------------------------------------------------------------
    def _schedule_one(self, chunk_id: str, retries: int) -> None:
        meta = self.cluster.metaserver
        stripe = meta.stripe_for_chunk(chunk_id)
        lost_index = stripe.chunk_index(chunk_id)
        if meta.locate_chunk(chunk_id) is not None:
            return  # already repaired (e.g. transient failure resolved)
        sources = self.select_sources(stripe, lost_index, stripe.chunk_size)
        destination = self.select_destination(
            stripe, stripe.chunk_size, sources
        )

        schedule_time = self.cluster.sim.now

        def on_complete(result: RepairResult) -> None:
            self.inflight.pop(chunk_id, None)
            self.completed.append(result)
            tracer = obs.tracer()
            if tracer is not None:
                # Per-stripe scheduling span: from the RM's decision to
                # completion, so queueing ahead of the repair is visible.
                tracer.record_span(
                    "mppr.stripe_repair",
                    schedule_time,
                    self.cluster.sim.now,
                    node=destination,
                    category="mppr",
                    stripe=stripe.stripe_id,
                    chunk_id=chunk_id,
                    repair_id=result.repair_id,
                    strategy=self.config.strategy,
                    retries=retries,
                )
            for index in sources:
                server = self._host_of(stripe, index)
                if server is not None:
                    self._src_load[server] = max(
                        0, self._src_load.get(server, 0) - 1
                    )
            self._dst_load[destination] = max(
                0, self._dst_load.get(destination, 0) - 1
            )
            self.schedule_pending()

        context = self.coordinator.start_repair(
            stripe=stripe,
            lost_index=lost_index,
            strategy=self.config.strategy,
            destination=destination,
            kind="repair",
            helper_indices=sources,
            on_complete=on_complete,
            num_slices=self.config.num_slices,
            capacity_aware=self.config.capacity_aware,
        )
        self.inflight[chunk_id] = context
        # UPDATESERVERWEIGHTS: account for the load this repair adds.
        for index in context.recipe.helpers:
            server = context.helper_servers[index]
            self._src_load[server] = self._src_load.get(server, 0) + 1
        self._dst_load[destination] = self._dst_load.get(destination, 0) + 1
        self._arm_timeout(chunk_id, context, retries)

    def _host_of(self, stripe: Stripe, index: int) -> "Optional[str]":
        return self.cluster.metaserver.chunk_locations.get(
            stripe.chunk_ids[index]
        )

    def _arm_timeout(
        self, chunk_id: str, context: "RepairContext", retries: int
    ) -> None:
        ref = weakref.ref(context)  # an unfinished repair stays registered

        def check() -> None:
            context = ref()  # None once a finished repair has been freed
            if context is None or context.finished:
                return
            if obs.tracer() is not None:
                obs.registry().counter(
                    "mppr.repairs.rescheduled", stripe=context.stripe.stripe_id
                ).inc()
            # Abandon the stuck plan (late messages drop harmlessly) and
            # reschedule with a fresh server choice (§5 "Staleness").
            self.cluster._repairs.pop(context.repair_id, None)
            self.inflight.pop(chunk_id, None)
            self.queue.append((chunk_id, retries + 1))
            self.schedule_pending()

        self.cluster.sim.schedule(self.config.repair_timeout, check)

    # ------------------------------------------------------------------
    # Degraded reads (highest priority: scheduled immediately)
    # ------------------------------------------------------------------
    def start_degraded_read(
        self,
        stripe: Stripe,
        lost_index: int,
        client_id: str,
        strategy: "Optional[str]" = None,
        on_complete: "Optional[Callable[[RepairResult], None]]" = None,
        num_slices: int = 1,
    ) -> "RepairContext":
        sources = self.select_sources(stripe, lost_index, stripe.chunk_size)
        return self.coordinator.start_repair(
            stripe=stripe,
            lost_index=lost_index,
            strategy=strategy or self.config.strategy,
            destination=client_id,
            kind="degraded_read",
            helper_indices=sources,
            on_complete=on_complete,
            num_slices=num_slices,
        )

    # ------------------------------------------------------------------
    # Batch helpers for experiments
    # ------------------------------------------------------------------
    def drain(self, max_time: float = 1e9) -> BatchRepairResult:
        """Run the simulation until all queued/in-flight repairs finish.

        Stops at ``max_time`` (virtual) even if repairs are stuck, so a bug
        surfaces as unfinished repairs rather than a hang.
        """
        sim = self.cluster.sim
        steps = 0
        while self.queue or self.inflight:
            next_time = sim.peek_time()
            if next_time is None or next_time > max_time:
                break
            sim.step()
            steps += 1
            if steps > 5_000_000:
                raise SchedulingError("m-PPR drain exceeded 5M events")
        return BatchRepairResult(results=list(self.completed))
