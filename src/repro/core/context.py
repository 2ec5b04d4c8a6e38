"""Per-repair shared state: the glue between coordinator, cluster and tasks.

A :class:`RepairContext` is created by the coordinator for every
reconstruction (regular repair or degraded read).  Tasks running on nodes
use it to start bulk transfers (recorded into the traffic matrix and the
network phase), forward plan commands to leaf peers, and report the
finished chunk; the context verifies the rebuilt bytes against ground
truth and produces the :class:`~repro.core.results.RepairResult`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs import causal
from repro.errors import StorageError
from repro.codes.recipe import RepairRecipe
from repro.core.results import RepairResult
from repro.fs.messages import RawReadRequest
from repro.sim.metrics import PHASES, PhaseBreakdown, TrafficMatrix

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.chunks import Stripe
    from repro.fs.cluster import StorageCluster
    from repro.fs.node import StorageNode


class RepairContext:
    """State shared by all participants of one reconstruction."""

    def __init__(
        self,
        cluster: "StorageCluster",
        repair_id: str,
        stripe: "Stripe",
        lost_index: int,
        strategy: str,
        kind: str,
        recipe: RepairRecipe,
        helper_servers: "Dict[int, str]",
        destination: str,
        expected_payload: "Optional[np.ndarray]",
        on_complete: "Optional[Callable[[RepairResult], None]]" = None,
        num_slices: int = 1,
    ):
        self.cluster = cluster
        self.repair_id = repair_id
        self.stripe = stripe
        self.lost_index = lost_index
        self.strategy = strategy
        self.kind = kind
        self.recipe = recipe
        self.helper_servers = dict(helper_servers)
        self._server_to_index = {s: i for i, s in helper_servers.items()}
        self.destination = destination
        self.expected_payload = expected_payload
        self.on_complete = on_complete
        self.num_slices = max(1, num_slices)

        #: Deterministic causal trace id; every span this repair produces
        #: (phases, disk ops, flows) is tagged with it so the stitcher can
        #: group cross-node work back into one repair DAG.
        self.trace_id = causal.trace_id_for(repair_id)
        self.compute = cluster.compute
        self.chunk_size = stripe.chunk_size
        self.breakdown = PhaseBreakdown()
        self.traffic = TrafficMatrix()
        self.cache_hits = 0
        self.start_time = cluster.sim.now
        self.breakdown.start_time = self.start_time
        self.finished = False
        self.result: "Optional[RepairResult]" = None
        #: aggregator server id -> [(leaf server id, plan command)] (§6.2).
        self.leaf_requests: "Dict[str, List[tuple]]" = {}
        self._tasks: "List[object]" = []
        #: §4.3 accounting: modeled bytes buffered for this repair, per node.
        self._buffer_now: "Dict[str, float]" = {}
        self._buffer_peak: "Dict[str, float]" = {}
        #: Traced sliced repairs: per open hop gid, (first start, last
        #: end, slices seen, bytes); per node, its closed compute hops.
        self._hops: "Dict[str, Tuple[float, float, int, float]]" = {}
        self._computed: "Dict[str, List[str]]" = {}

    # ------------------------------------------------------------------
    # Lookups used by tasks
    # ------------------------------------------------------------------
    def stripe_index_of(self, server_id: str) -> int:
        """Which stripe chunk index a helper server holds for this repair."""
        try:
            return self._server_to_index[server_id]
        except KeyError:
            raise StorageError(
                f"server {server_id} is not a helper of repair {self.repair_id}"
            ) from None

    def register_task(self, task: object) -> None:
        self._tasks.append(task)

    def record_cache_hit(self) -> None:
        self.cache_hits += 1

    # ------------------------------------------------------------------
    # Observability bridge
    # ------------------------------------------------------------------
    def record_phase(
        self,
        phase: str,
        start: float,
        end: float,
        node_id: str = "",
        **attrs: object,
    ) -> None:
        """Record one phase interval (virtual time) for this repair.

        The single sim-side ingestion point: feeds the
        :class:`PhaseBreakdown` (the paper's Figure 1 view) and — when
        tracing is enabled — mirrors the interval as a
        ``sim.phase.<phase>`` obs span tagged with the node, repair id,
        stripe and strategy.  Tasks call this instead of touching
        ``breakdown`` directly so both views always agree.
        """
        self.breakdown.record(phase, start, end)
        if obs.tracer() is not None:
            self._span(f"sim.phase.{phase}", start, end, node_id, **attrs)

    def record_slice(
        self,
        phase: str,
        hop: str,
        start: float,
        end: float,
        node_id: str,
        after: "Optional[str]" = None,
        **attrs: object,
    ) -> None:
        """Record one slice of a partial plan's hop ``hop`` at ``node_id``.

        Unsliced, this is :meth:`record_phase`.  Sliced, the breakdown
        takes every slice but, as in a live trace, each slice is a
        ``sim.stream`` detail span outside the causal DAG and the hop's
        last slice closes one ``sim.phase`` span over all of them.  That
        span names its inputs (``gid``/``deps``), as overlapping hops
        defeat timing inference: a transfer consumed all its sender
        computed, a compute the hop ``after`` on its own node.
        """
        if self.num_slices == 1:
            self.record_phase(phase, start, end, node_id=node_id, **attrs)
            return
        self.breakdown.record(phase, start, end)
        if obs.tracer() is None:
            return
        self._span(f"sim.slice.{phase}", start, end, node_id, "sim.stream",
                   **attrs)
        gid = f"{self.repair_id}/{node_id}/{hop}"
        first, last, seen, nbytes = self._hops.pop(gid, (start, end, 0, 0.0))
        first, last, seen = min(first, start), max(last, end), seen + 1
        if "nbytes" in attrs:
            nbytes += float(attrs["nbytes"])  # type: ignore[arg-type]
            attrs["nbytes"] = nbytes
        if seen < self.num_slices:
            self._hops[gid] = (first, last, seen, nbytes)
            return
        if phase == "network":
            deps = list(self._computed.get(str(attrs["src"]), ()))
        else:
            deps = [f"{self.repair_id}/{node_id}/{after}"] if after else []
        if phase == "compute":
            self._computed.setdefault(node_id, []).append(gid)
        self._span(f"sim.phase.{phase}", first, last, node_id, **attrs,
                   gid=gid, deps=deps, slices=self.num_slices)

    def _span(
        self,
        name: str,
        start: float,
        end: float,
        node_id: str,
        category: str = "sim.phase",
        **attrs: object,
    ) -> None:
        obs.tracer().record_span(  # type: ignore[union-attr]
            name,
            start,
            end,
            node=node_id,
            category=category,
            repair_id=self.repair_id,
            trace_id=self.trace_id,
            stripe=self.stripe.stripe_id,
            strategy=self.strategy,
            **attrs,
        )

    # ------------------------------------------------------------------
    # §4.3 memory accounting
    # ------------------------------------------------------------------
    def note_buffer(self, node_id: str, delta_bytes: float) -> None:
        """Track reconstruction buffers held at a node (modeled bytes)."""
        now = self._buffer_now.get(node_id, 0.0) + delta_bytes
        self._buffer_now[node_id] = max(0.0, now)
        peak = self._buffer_peak.get(node_id, 0.0)
        if now > peak:
            self._buffer_peak[node_id] = now

    def peak_buffer_bytes(self) -> float:
        """Largest reconstruction memory footprint at any single node."""
        return max(self._buffer_peak.values(), default=0.0)

    # ------------------------------------------------------------------
    # Communication helpers
    # ------------------------------------------------------------------
    def start_transfer(
        self, src: str, dst: str, nbytes: float, payload: object
    ) -> None:
        """Bulk transfer recorded into the traffic matrix + network phase
        (one slice of a hop when the repair is sliced)."""
        start = self.cluster.sim.now

        def on_done(_flow) -> None:
            self.record_slice(
                "network",
                f"network<{src}",
                start,
                self.cluster.sim.now,
                node_id=dst,
                nbytes=nbytes,
                src=src,
            )
            self.traffic.add(src, dst, nbytes)
            node = self.cluster.node(dst)
            node.deliver(payload)

        # Degraded reads are user-facing traffic; background repairs are
        # the paced class.  This tag is what the QoS admission controller
        # and per-class byte accounting key on.
        traffic_class = (
            "degraded" if self.kind == "degraded_read" else "repair"
        )
        self.cluster.start_flow(
            src, dst, nbytes, on_done, traffic_class=traffic_class
        )

    def send_leaf_requests(self, aggregator_id: str) -> None:
        """Forward plan commands from an aggregator to its leaf peers.

        Popped on first use so each leaf is asked exactly once.
        """
        for leaf_id, request in self.leaf_requests.pop(aggregator_id, []):
            node = self.cluster.node(leaf_id)
            self.cluster.send_control(
                leaf_id, node.handle_partial_request, request
            )

    def send_raw_read(self, helper_index: int, requester: str) -> None:
        """Ask the server hosting ``helper_index`` for its raw rows."""
        server_id = self.helper_servers[helper_index]
        chunk_id = self.stripe.chunk_ids[helper_index]
        request = RawReadRequest(
            repair_id=self.repair_id,
            stripe_id=self.stripe.stripe_id,
            chunk_id=chunk_id,
            rows_needed=self.recipe.term_for(helper_index).read_rows,
            rows=self.recipe.rows,
            chunk_size=self.chunk_size,
            requester=requester,
        )
        server = self.cluster.chunk_server(server_id)
        self.cluster.send_control(
            server_id, server.handle_raw_read, request
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish_at_destination(
        self, node: "StorageNode", chunk_payload: np.ndarray
    ) -> None:
        """Destination finished aggregation/decoding."""
        if self.finished:
            return
        if self.kind == "repair":
            disk = getattr(node, "disk", None)
            if disk is not None:
                start = self.cluster.sim.now

                def on_written() -> None:
                    self.record_phase(
                        "disk_write",
                        start,
                        self.cluster.sim.now,
                        node_id=node.node_id,
                        nbytes=self.chunk_size,
                    )
                    self._complete(node, chunk_payload)

                disk.write(self.chunk_size, on_written)
                return
        self._complete(node, chunk_payload)

    def _complete(self, node: "StorageNode", chunk_payload: np.ndarray) -> None:
        self.finished = True
        self.breakdown.end_time = self.cluster.sim.now
        verified = self.expected_payload is not None and bool(
            np.array_equal(chunk_payload, self.expected_payload)
        )
        self.result = RepairResult(
            repair_id=self.repair_id,
            kind=self.kind,
            strategy=self.strategy,
            code_name=self.stripe.code.name,
            stripe_id=self.stripe.stripe_id,
            lost_index=self.lost_index,
            chunk_size=self.chunk_size,
            destination=self.destination,
            start_time=self.start_time,
            end_time=self.cluster.sim.now,
            verified=verified,
            cache_hits=self.cache_hits,
            phase_busy={name: self.breakdown.busy(name) for name in PHASES},
            traffic=self.traffic,
            num_helpers=len(self.recipe.helpers),
            peak_buffer_bytes=self.peak_buffer_bytes(),
        )
        if obs.tracer() is not None:
            self._span(
                "sim.repair",
                self.start_time,
                self.cluster.sim.now,
                self.destination,
                "sim.repair",
                kind=self.kind,
                verified=verified,
                cache_hits=self.cache_hits,
                helpers=len(self.recipe.helpers),
                slices=self.num_slices,
            )
            obs.registry().counter(
                "sim.repairs.completed", strategy=self.strategy
            ).inc()
        self.cluster.repair_finished(self, chunk_payload)
        if self.on_complete is not None:
            self.on_complete(self.result)
