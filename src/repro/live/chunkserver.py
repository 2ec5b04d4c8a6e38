"""A chunk server as a real TCP service.

Hosts chunk payloads in memory, serves reads, and runs both repair
execution paths over sockets:

* **PPR** (:data:`~repro.live.wire.MessageType.PARTIAL_OP`, then one
  ``STREAM_BEGIN``/``DATA``/``END`` stream per hop): compute the local
  partial with the exact GF math of the simulator
  (:func:`repro.fs.messages.compute_partial`), XOR-merge the subtree's
  partials as they arrive, forward the aggregate upstream as S slices
  (S = 1 moves whole rows) — or, at the repair destination, assemble and
  store the rebuilt chunk and answer the coordinator's
  :data:`~repro.live.wire.MessageType.REPAIR_RESULT` call with it.
  BEGIN and DATA are one-way, so each DATA frame is XOR-merged into its
  task's rows *in place* as it arrives — no queue, no task per frame, no
  child's whole chunk ever buffered — and the END ack fails unless every
  slice arrived.  A helper forwards slice ``i`` upstream the moment its
  subtree has delivered slice ``i``, which is what drives repair time
  toward C/B (Li et al., repair pipelining).
* **Raw collection** (:data:`~repro.live.wire.MessageType.START_RAW_REPAIR`):
  the star/staggered destination role — pull raw rows from every helper
  over TCP (concurrently or one at a time) and decode centrally.

Merge, dedup by (sender, slice), slice readiness and assembly are the
:class:`~repro.repair.aggregate.Aggregation` core the simulator drives
too; it rejects a DATA segment whose offset, length or row does not fit
the slicing rule, and the END ack then fails.  No stream can outrun its
plan: the coordinator installs every non-leaf plan before any leaf gets
one, and a helper opens its stream only once its slice 0 is ready, so a
BEGIN for a repair with no plan here is stale and is dropped.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.errors import (
    AggregationError,
    ChunkNotFoundError,
    LiveRepairError,
    RepairAbortedError,
    RpcError,
    StreamError,
)
from repro.fs.messages import (
    Heartbeat,
    PartialOpRequest,
    RawReadRequest,
    compute_partial,
    extract_rows,
    recipe_from_wire,
)
from repro.live import trace
from repro.live.config import TELEMETRY_CAPACITY, LiveConfig
from repro.live.rpc import (
    Address,
    InboundStream,
    RpcClientPool,
    RpcServer,
    StreamInbox,
    StreamSender,
)
from repro.live.wire import Frame, MessageType
from repro.obs import causal, profiler
from repro.obs.anomaly import Anomaly, AnomalyEngine, StalledStreamDetector
from repro.obs.collector import TelemetryShipper
from repro.obs.doctor import IncidentStore
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Histogram
from repro.obs.timeseries import Sampler, TimeSeriesStore
from repro.qos.admission import FOREGROUND, REPAIR, TokenBucket
from repro.repair.aggregate import LOCAL, Aggregation
from repro.qos.slo import QOS_BUCKETS, LatencyReservoir
from repro.sim.metrics import PHASES


@dataclass
class LiveChunk:
    """One chunk hosted by a live server (payload is the real bytes)."""

    chunk_id: str
    stripe_id: str
    index: int
    payload: np.ndarray


@dataclass
class _PartialTask:
    """Per-repair aggregation state at one server (§6.2, live edition):
    the bytes live in :attr:`agg`; this shell adds the asyncio events,
    the stream-END bookkeeping and the trace records."""

    request: PartialOpRequest
    peers: "Dict[str, Address]"
    #: Children whose stream ENDed cleanly (every slice merged).
    received: "Set[str]" = field(default_factory=set)
    trace: "List[trace.TraceRecord]" = field(default_factory=list)
    traffic: "List[trace.TrafficRecord]" = field(default_factory=list)
    inputs_ready: asyncio.Event = field(default_factory=asyncio.Event)
    aborted: bool = False
    #: Causal context of the repair (None = untraced: records carry no
    #: gid/deps and cost nothing extra).
    ctx: "Optional[causal.SpanContext]" = None
    #: gids of the records whose outputs form the current partial state
    #: (local multiply, then each merge/assemble collapses them to one).
    state_deps: "List[str]" = field(default_factory=list)
    #: Last transfer received by this node for this repair: each arrival
    #: depends on it, encoding the ingress-link serialization that makes
    #: Theorem 1's step count observable in a stitched DAG.
    last_net_gid: "Optional[str]" = None
    #: Per-slice readiness events, set once ``agg.ready(i)``.
    slice_events: "Dict[int, asyncio.Event]" = field(default_factory=dict)
    agg: Aggregation = field(init=False)

    def __post_init__(self) -> None:
        req = self.request
        self.agg = Aggregation(
            req.rows, req.num_slices, req.children, req.chunk_id is not None
        )

    @property
    def num_slices(self) -> int:
        return self.request.num_slices

    @property
    def inputs_complete(self) -> bool:
        # Every child ENDed (all its slices merged) and the local partial,
        # merged over every slice at once, is in.
        ended = len(self.received) == len(self.request.children)
        return ended and self.agg.ready(self.num_slices - 1)

    def merge(
        self,
        sender: "Optional[str]",
        first: int,
        last: int,
        buffers: "Dict[int, np.ndarray]",
        offset: "Optional[int]" = None,
    ) -> bool:
        """:meth:`Aggregation.merge`, then wake the slices it completed."""
        if not self.agg.merge(sender, first, last, buffers, offset):
            return False
        for index in range(first, last + 1):
            event = self.slice_events.get(index)
            if event is not None and self.agg.ready(index):
                event.set()
        if self.inputs_complete:
            self.inputs_ready.set()
        return True

    def add_remote(
        self,
        sender: str,
        sub_trace: "List[trace.TraceRecord]",
        sub_traffic: "List[trace.TrafficRecord]",
    ) -> bool:
        """Record a child's finished stream (its segments are merged
        already); False when it is a duplicate."""
        if sender in self.received or sender not in self.request.children:
            return False
        self.received.add(sender)
        self.trace.extend(sub_trace)
        self.traffic.extend(sub_traffic)
        if self.inputs_complete:
            self.inputs_ready.set()
        return True

    def slice_event(self, index: int) -> asyncio.Event:
        event = self.slice_events.get(index)
        if event is None:
            event = self.slice_events[index] = asyncio.Event()
            if self.agg.ready(index):
                event.set()
        return event

    def abort(self) -> None:
        self.aborted = True
        self.inputs_ready.set()
        for event in self.slice_events.values():
            event.set()


class LiveChunkServer:
    """One live storage server: an :class:`RpcServer` plus repair state."""

    def __init__(
        self,
        server_id: str,
        meta_address: "Optional[Address]" = None,
        config: "Optional[LiveConfig]" = None,
    ):
        self.server_id = server_id
        self.meta_address = meta_address
        self.config = config or LiveConfig()
        self.chunks: "Dict[str, LiveChunk]" = {}
        self.alive = False
        self.rpc = RpcServer(server_id, self.config)
        self.pool = RpcClientPool(self.config)
        self.tasks: "Dict[str, _PartialTask]" = {}
        #: Inbound wire streams (one per child hop) by stream id.
        self.inbox = StreamInbox(self.config)
        #: Allocator for causal record ids ("<server>#<n>"); only consulted
        #: while a traced repair is in flight.
        self._gids = causal.GidAllocator(server_id)
        self._background: "Set[asyncio.Task[None]]" = set()
        self._heartbeat_task: "Optional[asyncio.Task[None]]" = None
        self._telemetry_task: "Optional[asyncio.Task[None]]" = None
        #: Test hook: message types whose handler stalls forever, to
        #: exercise the per-RPC timeout path deterministically.
        self.stall_types: "Set[MessageType]" = set()
        #: Test hook: when set, the streaming helper wedges forever just
        #: before sending this slice index — the connection stays up and
        #: PING still answers, so only the stalled-stream watchdog (not
        #: the coordinator's ping round) can implicate this server.
        self.stall_stream_at_slice: "Optional[int]" = None

        # Doctor: flight recorder, anomaly engine and incident store.
        self.flight = FlightRecorder(node=server_id, clock=trace.now)
        self.rpc.flight = self.flight
        self.incidents = IncidentStore(
            directory=self.config.incident_dir or None, node=server_id
        )
        self._doctor = AnomalyEngine(cooldown=30.0)
        if self.config.stream_stall_deadline > 0:
            self._doctor.add(
                StalledStreamDetector(
                    self._stream_progress,
                    deadline=self.config.stream_stall_deadline,
                )
            )
        self._watchdog_task: "Optional[asyncio.Task[None]]" = None

        # Health counters: cumulative work done by *this* server (child
        # contributions ride in sub-traces and are accounted at their own
        # server), served by STATS/HEALTH and piggybacked on heartbeats.
        self.bytes_moved = 0.0
        self.repairs_completed = 0
        self.phase_busy: "Dict[str, float]" = {p: 0.0 for p in PHASES}
        #: QoS: per-class egress byte counters and the repair pacer.
        #: Foreground GET_CHUNK replies are never paced; repair-class
        #: sends (partial results upstream, raw-row replies) wait out
        #: the token bucket when a rate limit is configured.
        self.class_bytes: "Dict[str, float]" = {FOREGROUND: 0.0, REPAIR: 0.0}
        self._repair_bucket: "Optional[TokenBucket]" = (
            TokenBucket(
                self.config.repair_rate_limit,
                self.config.repair_burst_bytes,
            )
            if self.config.repair_rate_limit > 0
            else None
        )
        #: Per-server time series — one store per server instance (not
        #: the process-global registry) so in-process test clusters keep
        #: each server's telemetry distinct.
        self.telemetry = TimeSeriesStore(capacity=TELEMETRY_CAPACITY)
        self._sampler = Sampler(
            self.telemetry, interval=self.config.telemetry_interval
        )
        self._sampler.add_probe(
            "repairs.inflight",
            lambda: float(len(self.tasks)),
            node=server_id,
        )
        self._sampler.add_probe(
            "bytes.moved", lambda: self.bytes_moved, node=server_id
        )
        self._sampler.add_probe(
            "chunks.hosted",
            lambda: float(len(self.chunks)),
            node=server_id,
        )
        self._sampler.add_probe(
            "qos.bytes.foreground",
            lambda: self.class_bytes[FOREGROUND],
            node=server_id,
        )
        self._sampler.add_probe(
            "qos.bytes.repair",
            lambda: self.class_bytes[REPAIR],
            node=server_id,
        )
        self._sampler.add_probe(
            "streams.inflight",
            lambda: float(len(self.inbox)),
            node=server_id,
        )
        self._sampler.add_probe(
            "qos.bucket.occupancy",
            lambda: (
                self._repair_bucket.occupancy(trace.now())
                if self._repair_bucket is not None
                else 1.0
            ),
            node=server_id,
        )
        #: Per-server read-service-time distribution (GET_CHUNK and
        #: degraded-path RAW_READ), on the QoS log-bucket grid so the
        #: collector can merge it across the fleet for a pooled p99.
        self.read_latency = Histogram(
            "live.read.latency", {"node": server_id}, QOS_BUCKETS
        )
        #: Exact-sample shadow of the same observations (Algorithm R).
        #: Conformance ground truth: fleet p99 from merged histogram
        #: buckets must land within one bucket width of the pooled
        #: per-node reservoirs.
        self.read_reservoir = LatencyReservoir()
        #: Collector push (gated by ``collector_enabled``): series
        #: deltas + the read-latency histogram, shipped to the
        #: meta-server-hosted collector on the heartbeat cadence.
        self._shipper: "Optional[TelemetryShipper]" = (
            TelemetryShipper(
                server_id,
                self.telemetry,
                hists=lambda: [self.read_latency.snapshot()],
                health=self.health_summary,
            )
            if self.config.collector_enabled
            else None
        )

        register = self.rpc.register
        register(MessageType.PING, self._on_ping)
        register(MessageType.PUT_CHUNK, self._on_put_chunk)
        register(MessageType.GET_CHUNK, self._on_get_chunk)
        register(MessageType.DROP_CHUNK, self._on_drop_chunk)
        register(MessageType.RAW_READ, self._on_raw_read)
        register(MessageType.PARTIAL_OP, self._on_partial_op)
        register(MessageType.REPAIR_RESULT, self._on_repair_result)
        register(MessageType.START_RAW_REPAIR, self._on_start_raw_repair)
        register(MessageType.REPAIR_ABORT, self._on_repair_abort)
        register(MessageType.STATS, self._on_stats)
        register(MessageType.HEALTH, self._on_health)
        register(MessageType.DOCTOR, self._on_doctor)
        register(MessageType.STREAM_BEGIN, self._on_stream_begin)
        register(MessageType.STREAM_DATA, self._on_stream_data)
        register(MessageType.STREAM_END, self._on_stream_end)
        register(MessageType.STREAM_ABORT, self._on_stream_abort)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        assert self.rpc.address is not None, "server not started"
        return self.rpc.address

    async def start(self, port: int = 0) -> Address:
        address = await self.rpc.start(port=port)
        self.alive = True
        self._telemetry_task = asyncio.create_task(self._telemetry_loop())
        if self.config.stream_stall_deadline > 0:
            self._watchdog_task = asyncio.create_task(self._watchdog_loop())
        if self.meta_address is not None:
            await self._register_with_meta()
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        return address

    async def stop(self) -> None:
        """Graceful shutdown: finish nothing, close everything cleanly."""
        await self._shutdown(abort=False)

    async def kill(self) -> None:
        """Crash the server: reset connections, abandon repair tasks."""
        await self._shutdown(abort=True)

    async def _shutdown(self, abort: bool) -> None:
        self.alive = False
        if abort:
            # A crash stops answering at once: peers must not get a PING
            # through while the background tasks below are reaped.
            await self.rpc.close(abort=True)
        for attr in ("_heartbeat_task", "_telemetry_task", "_watchdog_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
                setattr(self, attr, None)
        for task_state in self.tasks.values():
            task_state.abort()
        self.tasks.clear()
        self.inbox.close("server shutdown")
        for task in list(self._background):
            task.cancel()
        for task in list(self._background):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._background.clear()
        await self.rpc.close()
        await self.pool.close()

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    # ------------------------------------------------------------------
    # Membership: HELLO + heartbeats to the meta-server
    # ------------------------------------------------------------------
    async def _register_with_meta(self) -> None:
        assert self.meta_address is not None
        client = self.pool.get(self.meta_address)
        await client.call(
            MessageType.HELLO,
            {
                "server_id": self.server_id,
                "address": list(self.address.to_wire()),
            },
        )

    def make_heartbeat(self) -> Heartbeat:
        return Heartbeat(
            server_id=self.server_id,
            time=trace.now(),
            cached_chunk_ids=frozenset(self.chunks),
            active_reconstructions=len(self.tasks),
            active_repair_destinations=0,
            user_load_bytes=0.0,
            disk_queue_delay=0.0,
        )

    async def _heartbeat_loop(self) -> None:
        assert self.meta_address is not None
        client = self.pool.get(self.meta_address)
        while self.alive:
            try:
                await client.call(
                    MessageType.HEARTBEAT,
                    {
                        "beat": self.make_heartbeat().to_wire(),
                        # Health piggybacks on the beat (extra key, so
                        # peers that predate it just ignore it) — the
                        # meta-server learns fleet health for free.
                        "health": self.health_summary(),
                    },
                    timeout=self.config.rpc_timeout,
                    retries=0,
                )
            except RpcError:
                pass  # the meta-server notices staleness on its own
            await self._ship_telemetry(client)
            await asyncio.sleep(self.config.heartbeat_interval)

    async def _ship_telemetry(self, client) -> None:
        """Push queued telemetry batches on the heartbeat cadence.

        Cuts one delta batch, then drains the shipper's bounded queue
        in order.  A failed send leaves the batch queued for the next
        beat (at-least-once; the collector dedups by node+boot+seq); a
        collector that stays down costs at most the shipper's bounded
        queue of batches before drop-oldest kicks in.
        """
        if self._shipper is None:
            return
        self._shipper.collect(trace.now())
        while self.alive:
            batch = self._shipper.next_batch()
            if batch is None:
                break
            try:
                await client.call(
                    MessageType.TELEMETRY,
                    batch,
                    timeout=self.config.rpc_timeout,
                    retries=0,
                )
            except RpcError:
                break  # keep the batch queued; retry next beat
            self._shipper.mark_sent()

    # ------------------------------------------------------------------
    # Telemetry: wall-clock sampling, health counters, STATS/HEALTH
    # ------------------------------------------------------------------
    async def _telemetry_loop(self) -> None:
        while self.alive:
            now = trace.now()
            self._sampler.sample(now)
            flight = self.flight
            flight.observe_metric("bytes.moved", self.bytes_moved, t=now)
            flight.observe_metric(
                "repairs.inflight", float(len(self.tasks)), t=now
            )
            flight.observe_metric(
                "streams.inflight", float(len(self.inbox)), t=now
            )
            await asyncio.sleep(self.config.telemetry_interval)

    # ------------------------------------------------------------------
    # Doctor: stalled-stream watchdog, incidents, DOCTOR RPC
    # ------------------------------------------------------------------
    async def _watchdog_loop(self) -> None:
        """Periodically run anomaly detectors; act on stalled streams."""
        interval = max(0.05, self.config.stream_stall_deadline / 4.0)
        while self.alive:
            try:
                self._run_doctor(trace.now())
            except Exception:
                pass  # a detector bug must never kill the watchdog
            await asyncio.sleep(interval)

    def _stream_progress(self) -> "List[Dict[str, object]]":
        """Progress snapshot of inbound streams for the stall detector."""
        progress: "List[Dict[str, object]]" = []
        for stream in self.inbox.streams():
            last = stream.last_progress
            if last is None:
                last = stream.opened_at
            if last is None:
                continue
            progress.append(
                {
                    "stream_id": stream.stream_id,
                    "repair_id": stream.repair_id,
                    "src": stream.sender,
                    "last_progress": float(last),
                    "bytes_received": int(stream.bytes_received),
                    "node": self.server_id,
                }
            )
        return progress

    def _run_doctor(self, now: float) -> None:
        for anomaly in self._doctor.run(now):
            if anomaly.detector == StalledStreamDetector.name:
                self._handle_stalled_stream(anomaly, now)
            else:
                self._file_incident(anomaly)

    def _file_incident(
        self,
        anomaly: Anomaly,
        records: "Optional[List[trace.TraceRecord]]" = None,
    ) -> "Dict[str, object]":
        """Build and retain an incident bundle for one anomaly."""
        bundle = self.incidents.file(
            anomaly,
            records=records,
            flight=self.flight,
            store=self.telemetry,
            clock="wall",
        )
        self.telemetry.record(
            "live.doctor.incidents",
            trace.now(),
            float(len(self.incidents.bundles())),
            node=self.server_id,
        )
        return bundle

    def _handle_stalled_stream(self, anomaly: Anomaly, now: float) -> None:
        """File an incident for a stalled inbound stream, then tear it down.

        Teardown aborts the stream and its repair task; the abort
        cascades out of the waiting aggregation coroutine so the
        coordinator learns of the failure and replans immediately rather
        than waiting out the passive slice timeouts.
        """
        stream_id = str(anomaly.data.get("stream_id", ""))
        try:
            stream = self.inbox.get(stream_id)
        except StreamError:
            return  # already gone; nothing to tear down
        task = self.tasks.get(stream.repair_id)
        records: "List[trace.TraceRecord]" = []
        if task is not None:
            records.extend(task.trace)
            deps = [task.last_net_gid] if task.last_net_gid else []
            _gid, kw = self._causal_kw(task.ctx, deps)
            records.append(
                trace.phase_record(
                    "network",
                    float(stream.opened_at or now),
                    now,
                    self.server_id,
                    nbytes=int(stream.bytes_received),
                    src=stream.sender,
                    streamed=True,
                    stalled=True,
                    **kw,
                )
            )
        self.flight.record(
            "anomaly",
            anomaly.detector,
            t=now,
            stream_id=stream_id,
            src=stream.sender,
            repair_id=stream.repair_id,
        )
        self._file_incident(anomaly, records=records)
        reason = (
            f"stalled stream {stream_id} from {stream.sender}: no progress "
            f"for {self.config.stream_stall_deadline:.2f}s"
        )
        self._abort_stream(stream, reason)
        self.telemetry.record(
            "live.doctor.stalls", now, 1.0, node=self.server_id
        )

    async def _on_doctor(self, frame: Frame) -> "Dict[str, object]":
        """DOCTOR RPC: incident bundles, anomalies and doctor state."""
        incident_id = frame.payload.get("incident_id")
        if incident_id is not None:
            return {
                "server_id": self.server_id,
                "incident": self.incidents.get(str(incident_id)),
            }
        repair_id = frame.payload.get("repair_id")
        response: "Dict[str, object]" = {
            "server_id": self.server_id,
            "time": trace.now(),
            "incidents": self.incidents.list(),
            "anomalies": self.incidents.anomalies(
                str(repair_id) if repair_id else None
            ),
        }
        if frame.payload.get("flight"):
            response["flight"] = self.flight.dump()
        if frame.payload.get("profile"):
            wall = profiler.wall_profiler()
            if wall is not None:
                response["profile"] = wall.profile.to_dict()
        return response

    def _account(self, record: trace.TraceRecord) -> trace.TraceRecord:
        """Fold one locally produced phase record into health counters."""
        phase = str(record["phase"])
        if phase in self.phase_busy:
            self.phase_busy[phase] += float(record["end"]) - float(  # type: ignore[arg-type]
                record["start"]  # type: ignore[arg-type]
            )
        attrs = record.get("attrs")
        if isinstance(attrs, dict):
            self.bytes_moved += float(attrs.get("nbytes", 0) or 0)
        return record

    def _causal_kw(
        self,
        ctx: "Optional[causal.SpanContext]",
        deps: "List[str]",
    ) -> "Tuple[Optional[str], Dict[str, object]]":
        """``(gid, keyword-args)`` for one causally tagged phase record.

        Untraced repairs (``ctx is None``) get ``(None, {})`` so the
        record stays byte-identical to the legacy format.
        """
        if ctx is None:
            return None, {}
        gid = self._gids.next()
        return gid, {"gid": gid, "deps": list(deps), "trace_id": ctx.trace_id}

    def health_summary(self) -> "Dict[str, object]":
        """Point-in-time health: work counters served by STATS/HEALTH."""
        return {
            "server_id": self.server_id,
            "time": trace.now(),
            "alive": self.alive,
            "inflight_repairs": len(self.tasks),
            "repairs_completed": self.repairs_completed,
            "bytes_moved": self.bytes_moved,
            "chunks_hosted": len(self.chunks),
            "phase_busy": dict(self.phase_busy),
        }

    async def _on_stats(self, frame: Frame) -> "Dict[str, object]":
        payload = frame.payload
        start = payload.get("start")
        end = payload.get("end")
        return {
            "server_id": self.server_id,
            "time": trace.now(),
            "series": self.telemetry.snapshot(
                float(start) if start is not None else None,  # type: ignore[arg-type]
                float(end) if end is not None else None,  # type: ignore[arg-type]
            ),
            "health": self.health_summary(),
        }

    async def _on_health(self, frame: Frame) -> "Dict[str, object]":
        return {
            "server_id": self.server_id,
            "health": self.health_summary(),
        }

    # ------------------------------------------------------------------
    # Chunk storage handlers
    # ------------------------------------------------------------------
    async def _maybe_stall(self, mtype: MessageType) -> None:
        if mtype in self.stall_types:
            await asyncio.Event().wait()  # never set: hold forever

    def _get_chunk(self, chunk_id: "Optional[str]") -> LiveChunk:
        if chunk_id is None or chunk_id not in self.chunks:
            raise ChunkNotFoundError(
                f"server {self.server_id} does not host chunk {chunk_id}"
            )
        return self.chunks[chunk_id]

    async def _on_ping(self, frame: Frame) -> "Dict[str, object]":
        await self._maybe_stall(MessageType.PING)
        return {"server_id": self.server_id, "chunks": len(self.chunks)}

    async def _on_put_chunk(self, frame: Frame) -> "Dict[str, object]":
        payload = frame.payload
        chunk = LiveChunk(
            chunk_id=str(payload["chunk_id"]),
            stripe_id=str(payload["stripe_id"]),
            index=int(payload["index"]),  # type: ignore[arg-type]
            payload=frame.buffers[0],
        )
        self.chunks[chunk.chunk_id] = chunk
        return {"stored": chunk.chunk_id}

    async def _pace_repair(self, nbytes: float) -> None:
        """Charge ``nbytes`` to the repair class; sleep out the pacer.

        Foreground traffic never passes through here — strict priority
        for user reads is realized by only ever pacing repair sends.
        """
        self.class_bytes[REPAIR] += nbytes
        if self._repair_bucket is None:
            return
        delay = self._repair_bucket.reserve(nbytes, trace.now())
        if delay > 0:
            await asyncio.sleep(delay)

    def _observe_read(self, seconds: float) -> None:
        """One read service time into the mergeable histogram and its
        exact-sample reservoir shadow."""
        self.read_latency.observe(seconds)
        self.read_reservoir.append(seconds)

    async def _on_get_chunk(
        self, frame: Frame
    ) -> "Tuple[Dict[str, object], Dict[int, np.ndarray]]":
        read_start = trace.now()
        chunk = self._get_chunk(str(frame.payload["chunk_id"]))
        self.class_bytes[FOREGROUND] += float(chunk.payload.nbytes)
        self._observe_read(trace.now() - read_start)
        return (
            {"stripe_id": chunk.stripe_id, "index": chunk.index},
            {0: chunk.payload},
        )

    async def _on_drop_chunk(self, frame: Frame) -> "Dict[str, object]":
        chunk_id = str(frame.payload["chunk_id"])
        dropped = self.chunks.pop(chunk_id, None)
        return {"dropped": dropped is not None}

    # ------------------------------------------------------------------
    # Raw transfer: traditional repair's fetch
    # ------------------------------------------------------------------
    async def _on_raw_read(
        self, frame: Frame
    ) -> "Tuple[Dict[str, object], Dict[int, np.ndarray]]":
        await self._maybe_stall(MessageType.RAW_READ)
        request = RawReadRequest.from_wire(frame.payload["request"])  # type: ignore[arg-type]
        chunk = self._get_chunk(request.chunk_id)
        read_gid, ckw = self._causal_kw(causal.current(), [])
        read_start = trace.now()
        buffers = extract_rows(
            chunk.payload, request.rows, request.rows_needed
        )
        records = [
            self._account(
                trace.phase_record(
                    "disk_read",
                    read_start,
                    trace.now(),
                    self.server_id,
                    nbytes=trace.buffers_nbytes(buffers),  # type: ignore[arg-type]
                    chunk_id=request.chunk_id,
                    **ckw,  # type: ignore[arg-type]
                )
            )
        ]
        await self._pace_repair(trace.buffers_nbytes(buffers))  # type: ignore[arg-type]
        self._observe_read(trace.now() - read_start)
        payload: "Dict[str, object]" = {
            "trace": records,
            "sender": self.server_id,
            "sent_at": trace.now(),
        }
        if read_gid is not None:
            payload["sent_deps"] = [read_gid]
        return (payload, buffers)

    # ------------------------------------------------------------------
    # PPR: plan command
    # ------------------------------------------------------------------
    async def _on_partial_op(self, frame: Frame) -> object:
        await self._maybe_stall(MessageType.PARTIAL_OP)
        request = PartialOpRequest.from_wire(frame.payload["request"])  # type: ignore[arg-type]
        peers = {
            sid: Address.from_wire(addr)  # type: ignore[arg-type]
            for sid, addr in dict(frame.payload.get("peers", {})).items()  # type: ignore[union-attr]
        }
        task = _PartialTask(request=request, peers=peers, ctx=causal.current())
        if request.chunk_id is not None:
            chunk = self._get_chunk(request.chunk_id)
            task.agg.set_row_len(chunk.payload.size // max(request.rows, 1))
        self.tasks[request.repair_id] = task
        if request.parent is None:
            # Destination: REPAIR_RESULT collects the rebuilt chunk.
            return {"accepted": request.repair_id, "role": "destination"}
        self._spawn(self._stream_upstream(task))
        return {"accepted": request.repair_id, "role": "helper"}

    async def _compute_local_partial(self, task: _PartialTask) -> None:
        request = task.request
        read_gid, read_kw = self._causal_kw(task.ctx, [])
        read_start = trace.now()
        chunk = self._get_chunk(request.chunk_id)
        payload = chunk.payload
        self._observe_read(trace.now() - read_start)
        task.trace.append(
            self._account(
                trace.phase_record(
                    "disk_read",
                    read_start,
                    trace.now(),
                    self.server_id,
                    nbytes=int(payload.nbytes),
                    chunk_id=request.chunk_id,
                    **read_kw,  # type: ignore[arg-type]
                )
            )
        )
        if self.config.compute_delay:
            await asyncio.sleep(self.config.compute_delay)
        mul_gid, mul_kw = self._causal_kw(
            task.ctx, [read_gid] if read_gid else []
        )
        compute_start = trace.now()
        partial = compute_partial(request.entries, request.rows, payload)
        task.trace.append(
            self._account(
                trace.phase_record(
                    "compute",
                    compute_start,
                    trace.now(),
                    self.server_id,
                    **mul_kw,  # type: ignore[arg-type]
                )
            )
        )
        if mul_gid is not None:
            task.state_deps.append(mul_gid)
        # Whole rows covering every slice; the task owns compute_partial's
        # output, so a row's first contribution is adopted.
        task.merge(LOCAL, 0, request.num_slices - 1, partial)

    async def _wait_task(self, task: _PartialTask, event: asyncio.Event) -> None:
        """Wait on one of ``task``'s events under one timer handle (not a
        ``wait_for`` task) that sets it on expiry, so callers re-check what
        it stands for.  Raises if the repair was aborted meanwhile."""
        if not event.is_set():
            deadline = asyncio.get_running_loop().call_later(
                self.config.partial_wait_timeout, event.set
            )
            try:
                await event.wait()
            finally:
                deadline.cancel()
        if task.aborted:
            raise RepairAbortedError(
                f"repair {task.request.repair_id} aborted at {self.server_id}"
            )

    async def _wait_for_inputs(self, task: _PartialTask) -> None:
        await self._wait_task(task, task.inputs_ready)
        if not task.inputs_complete:
            missing = set(task.request.children) - task.received
            raise LiveRepairError(
                f"{self.server_id} still missing partial results from "
                f"{sorted(missing)} for {task.request.repair_id} after "
                f"{self.config.partial_wait_timeout}s"
            )

    # ------------------------------------------------------------------
    # PPR: pipelined per-slice forwarding
    # ------------------------------------------------------------------
    async def _wait_slice(self, task: _PartialTask, index: int) -> None:
        """Wait until slice ``index`` is fully aggregated at this node."""
        await self._wait_task(task, task.slice_event(index))
        if not task.agg.ready(index):
            raise LiveRepairError(
                f"{self.server_id} still missing slice {index} from "
                f"{task.agg.missing(index)} for {task.request.repair_id} after "
                f"{self.config.partial_wait_timeout}s"
            )

    async def _stream_upstream(self, task: _PartialTask) -> None:
        """Compute the local partial, then forward the aggregate upstream
        as S pipelined slices; children's segments merge on arrival
        meanwhile.

        BEGIN goes out once slice 0 is ready, so it always follows a
        leaf's data and finds the parent's plan installed.  Slice ``i``
        leaves the moment the local partial and every child's segment
        ``i`` are merged — while later slices are still in flight below.
        END goes out only after the whole subtree's END trailers landed,
        because it carries the subtree's trace records.
        """
        request = task.request
        parent = request.parent
        assert parent is not None
        parent_addr = task.peers.get(parent)
        if parent_addr is None:
            self.tasks.pop(request.repair_id, None)
            return
        stream_id = f"{request.repair_id}/{self.server_id}"
        sender = StreamSender(
            self.pool.get(parent_addr), stream_id, self.config
        )
        try:
            if request.chunk_id is not None:
                await self._compute_local_partial(task)
            for index in range(request.num_slices):
                await self._wait_slice(task, index)
                if index == 0:
                    await sender.begin(
                        {
                            "repair_id": request.repair_id,
                            "sender": self.server_id,
                            "num_slices": request.num_slices,
                            "row_len": task.agg.row_len,
                            "sent_at": trace.now(),
                        }
                    )
                if index == self.stall_stream_at_slice:
                    # Test hook: wedge forever *between* slices.  The
                    # connection stays up and PING still answers — the
                    # exact failure mode only the stalled-stream
                    # watchdog downstream can diagnose.
                    await asyncio.Event().wait()
                lo, hi = task.agg.bounds[index], task.agg.bounds[index + 1]
                segments = task.agg.segments(index)
                await self._pace_repair(float(hi - lo) * len(segments))
                await sender.data(
                    {"slice_index": index, "offset": lo}, segments
                )
            # The END trailer carries the subtree's records, so it must
            # wait for every child's own END (buffers are already gone).
            await self._wait_for_inputs(task)
            nbytes = trace.buffers_nbytes(task.agg.partial)  # type: ignore[arg-type]
            task.traffic.append(
                trace.traffic_record(self.server_id, parent, nbytes)
            )
            trailer: "Dict[str, object]" = {
                "repair_id": request.repair_id,
                "sender": self.server_id,
                "slices_sent": request.num_slices,
                "trace": task.trace,
                "traffic": task.traffic,
                "sent_at": trace.now(),
            }
            if task.ctx is not None:
                trailer["sent_deps"] = list(task.state_deps)
            await sender.end(trailer)
        except (
            AggregationError,
            ChunkNotFoundError,
            LiveRepairError,
            RepairAbortedError,
            RpcError,
            StreamError,
        ) as exc:
            # Tell the parent now so it can free stream state instead of
            # waiting out its own slice timeout; the coordinator replans.
            await sender.abort(str(exc))
        finally:
            self.tasks.pop(request.repair_id, None)

    # ------------------------------------------------------------------
    # PPR: inbound stream handlers
    # ------------------------------------------------------------------
    async def _on_stream_begin(self, frame: Frame) -> None:
        """One-way: open an inbound stream and check its geometry against
        the plan; a mismatch stays on the stream for the END ack.  With
        no plan here the repair is stale (aborted, or never ours): BEGIN
        is dropped and counted, so its DATA and END find no stream."""
        payload = frame.payload
        task = self.tasks.get(str(payload.get("repair_id", "")))
        if task is None:
            obs.registry().counter("live.stream.dropped_frames").inc()
            return
        stream = self.inbox.open(str(payload["stream_id"]), payload)
        if stream.opened_at is None:
            stream.opened_at = trace.now()
        num_slices = int(payload.get("num_slices", 1))  # type: ignore[arg-type]
        try:
            if num_slices != task.num_slices:
                raise StreamError(
                    f"stream {stream.stream_id} carries {num_slices} "
                    f"slices but the plan says {task.num_slices}"
                )
            task.agg.set_row_len(int(payload.get("row_len", 0)))  # type: ignore[arg-type]
        except (AggregationError, StreamError) as exc:
            stream.error = exc

    async def _on_stream_data(self, frame: Frame) -> None:
        """One-way: merge one segment on arrival; never suspends."""
        try:
            stream = self.inbox.get(str(frame.payload["stream_id"]))
        except StreamError:  # ENDed, aborted, torn down: nobody to tell
            obs.registry().counter("live.stream.dropped_frames").inc()
            return
        stream.last_progress = trace.now()
        task = self.tasks.get(stream.repair_id)
        if task is None or stream.error is not None:
            return  # the END ack reports it
        try:
            self._merge_stream_frame(task, stream, frame)
        except Exception as exc:  # noqa: BLE001 - surfaced via the END ack
            stream.error = exc

    async def _on_stream_end(self, frame: Frame) -> "Dict[str, object]":
        """Close an inbound stream: every DATA frame sent before END was
        merged on arrival, so the ack fails unless all slices are in —
        and then aborts the task, cascading the failure at once."""
        stream_id = str(frame.payload["stream_id"])
        stream = self.inbox.get(stream_id)
        self.inbox.discard(stream_id)
        task = self.tasks.get(stream.repair_id)
        if task is None:
            raise StreamError(f"repair {stream.repair_id} is not running here")
        missing = [
            i for i, got in enumerate(task.agg.got) if stream.sender not in got
        ]
        if stream.error is None and missing:
            stream.error = StreamError(
                f"stream {stream_id} ended with {len(missing)} of "
                f"{task.num_slices} slices missing"
            )
        if stream.error is not None:
            task.abort()
            raise stream.error
        self._finish_stream(task, stream, frame.payload)
        return {"merged": True, "nbytes": stream.bytes_received}

    async def _on_stream_abort(self, frame: Frame) -> "Dict[str, object]":
        try:
            stream = self.inbox.get(str(frame.payload["stream_id"]))
        except StreamError:
            return {"aborted": False}
        self._abort_stream(stream, str(frame.payload.get("reason", "peer abort")))
        return {"aborted": True}

    def _abort_stream(self, stream: InboundStream, reason: str) -> None:
        """Tear an inbound stream down with its repair task, so this
        node's waits fail now and the abort cascades upstream."""
        self.inbox.discard(stream.stream_id)
        stream.abort(reason)
        task = self.tasks.get(stream.repair_id)
        if task is not None:
            task.abort()

    def _merge_stream_frame(
        self, task: _PartialTask, stream: InboundStream, frame: Frame
    ) -> None:
        payload = frame.payload
        slice_index = int(payload["slice_index"])  # type: ignore[arg-type]
        offset = int(payload["offset"])  # type: ignore[arg-type]
        nbytes = trace.buffers_nbytes(frame.buffers)  # type: ignore[arg-type]
        merge_start = trace.now()
        merged = task.merge(
            stream.sender, slice_index, slice_index, frame.buffers, offset
        )
        if not merged:
            return  # duplicate segment
        stream.bytes_received += nbytes
        obs.registry().counter("live.stream.segments").inc()
        # Timeline detail only: slice records are not a PHASES member, so
        # they stay out of the breakdown and the conformance DAG — the
        # hop's single network record below carries the causality.  Only
        # the tracer's span ingest reads them: untraced repairs skip them.
        if task.ctx is not None:
            task.trace.append(
                trace.slice_record(
                    merge_start,
                    trace.now(),
                    self.server_id,
                    slice=slice_index,
                    offset=offset,
                    nbytes=nbytes,
                    src=stream.sender,
                )
            )

    def _finish_stream(
        self,
        task: _PartialTask,
        stream: InboundStream,
        trailer: "Dict[str, object]",
    ) -> None:
        """Process a stream's END trailer: the hop's one network record."""
        sub_trace = list(trailer.get("trace", []))  # type: ignore[arg-type]
        sub_traffic = list(trailer.get("traffic", []))  # type: ignore[arg-type]
        begin_sent_at = float(
            stream.begin.get("sent_at", stream.opened_at or trace.now())  # type: ignore[arg-type]
        )
        sent_deps = [
            d
            for d in trailer.get("sent_deps", [])  # type: ignore[union-attr]
            if isinstance(d, str)
        ]
        net_deps = list(sent_deps)
        if task.last_net_gid is not None:
            # Ingress serialization: arrivals share this node's link, so
            # each transfer causally follows the previous one (this edge
            # is what realizes Theorem 1's ceil(log2(k+1)) step count).
            net_deps.append(task.last_net_gid)
        net_gid, net_kw = self._causal_kw(task.ctx, net_deps)
        if net_gid is not None:
            # The END frame is the send/recv pair clock-offset estimation
            # sees: its raw sender timestamp against our processing time
            # is a genuine small latency.  BEGIN's timestamp would fold
            # the whole pipelined stream duration into the "offset".
            net_kw["sent_at"] = float(trailer.get("sent_at", begin_sent_at))  # type: ignore[arg-type]
        start, end = trace.clip_interval(begin_sent_at, trace.now())
        sub_trace.append(
            self._account(
                trace.phase_record(
                    "network",
                    start,
                    end,
                    self.server_id,
                    nbytes=stream.bytes_received,
                    src=stream.sender,
                    slices=int(stream.begin.get("num_slices", 1)),  # type: ignore[arg-type]
                    streamed=True,
                    **net_kw,  # type: ignore[arg-type]
                )
            )
        )
        if net_gid is not None:
            task.last_net_gid = net_gid
            task.state_deps.append(net_gid)
        task.add_remote(stream.sender, sub_trace, sub_traffic)

    # ------------------------------------------------------------------
    # PPR: destination role
    # ------------------------------------------------------------------
    async def _on_repair_result(
        self, frame: Frame
    ) -> "Tuple[Dict[str, object], Dict[int, np.ndarray]]":
        """The completion call: answered once this destination has
        assembled and committed the rebuilt chunk, with the chunk and the
        repair's trace/traffic records."""
        repair_id = str(frame.payload["repair_id"])
        task = self.tasks.get(repair_id)
        if task is None or task.request.parent is not None:
            raise LiveRepairError(
                f"{self.server_id} is not the destination of {repair_id}"
            )
        request = task.request
        try:
            await self._wait_for_inputs(task)
        finally:
            self.tasks.pop(repair_id, None)
        assemble_start = trace.now()
        chunk_payload = task.agg.assemble()
        asm_gid, asm_kw = self._causal_kw(task.ctx, task.state_deps)
        task.trace.append(
            self._account(
                trace.phase_record(
                    "compute",
                    assemble_start,
                    trace.now(),
                    self.server_id,
                    nbytes=int(chunk_payload.nbytes),
                    **asm_kw,  # type: ignore[arg-type]
                )
            )
        )
        if asm_gid is not None:
            task.state_deps = [asm_gid]
        await self._commit_chunk(
            task,
            chunk_id=str(frame.payload["lost_chunk_id"]),
            stripe_id=request.stripe_id,
            index=int(frame.payload["lost_index"]),  # type: ignore[arg-type]
            payload=chunk_payload,
        )
        return (
            {
                "repair_id": request.repair_id,
                "destination": self.server_id,
                "trace": task.trace,
                "traffic": task.traffic,
            },
            {0: chunk_payload},
        )

    async def _commit_chunk(
        self,
        task: _PartialTask,
        chunk_id: str,
        stripe_id: str,
        index: int,
        payload: np.ndarray,
    ) -> None:
        """Store the rebuilt chunk and tell the meta-server (disk_write)."""
        _, write_kw = self._causal_kw(task.ctx, task.state_deps)
        write_start = trace.now()
        self.chunks[chunk_id] = LiveChunk(
            chunk_id=chunk_id,
            stripe_id=stripe_id,
            index=index,
            payload=payload,
        )
        task.trace.append(
            self._account(
                trace.phase_record(
                    "disk_write",
                    write_start,
                    trace.now(),
                    self.server_id,
                    nbytes=int(payload.nbytes),
                    chunk_id=chunk_id,
                    **write_kw,  # type: ignore[arg-type]
                )
            )
        )
        self.repairs_completed += 1
        if self.meta_address is not None:
            client = self.pool.get(self.meta_address)
            try:
                await client.call(
                    MessageType.CHUNK_ADDED,
                    {"chunk_id": chunk_id, "server_id": self.server_id},
                    retries=0,
                )
            except RpcError:
                pass  # metadata catches up via the next repair/lookup

    # ------------------------------------------------------------------
    # Raw plans (star / staggered): destination pulls raw rows, one plan
    # step at a time, and decodes centrally
    # ------------------------------------------------------------------
    async def _on_start_raw_repair(
        self, frame: Frame
    ) -> "Tuple[Dict[str, object], Dict[int, np.ndarray]]":
        await self._maybe_stall(MessageType.START_RAW_REPAIR)
        payload = frame.payload
        repair_id = str(payload["repair_id"])
        stripe_id = str(payload["stripe_id"])
        recipe = recipe_from_wire(payload["recipe"])  # type: ignore[arg-type]
        #: plan step -> [(helper chunk index, helper spec)]
        steps: "Dict[int, List[Tuple[int, Dict[str, object]]]]" = {}
        for index, spec in sorted(
            (int(i), dict(s))  # type: ignore[arg-type]
            for i, s in dict(payload["helpers"]).items()  # type: ignore[arg-type]
        ):
            steps.setdefault(int(spec["step"]), []).append((index, spec))  # type: ignore[arg-type]
        task = _PartialTask(
            request=PartialOpRequest(
                repair_id=repair_id,
                stripe_id=stripe_id,
                chunk_id=None,
                entries=(),
                rows=recipe.rows,
                chunk_size=float(payload.get("chunk_size", 0.0)),  # type: ignore[arg-type]
                children=(),
                parent=None,
                send_rows=frozenset(),
                send_fraction=0.0,
                read_fraction=0.0,
            ),
            peers={},
            ctx=causal.current(),
        )

        raw: "Dict[int, Dict[int, np.ndarray]]" = {}

        async def fetch(
            index: int, spec: "Dict[str, object]", after: "List[str]"
        ) -> "Optional[str]":
            helper_id = str(spec["server_id"])
            address = Address.from_wire(spec["address"])  # type: ignore[arg-type]
            request = RawReadRequest(
                repair_id=repair_id,
                stripe_id=stripe_id,
                chunk_id=str(spec["chunk_id"]),
                rows_needed=recipe.term_for(index).read_rows,
                rows=recipe.rows,
                chunk_size=float(payload.get("chunk_size", 0.0)),  # type: ignore[arg-type]
                requester=self.server_id,
            )
            client = self.pool.get(address)
            response = await client.call(
                MessageType.RAW_READ,
                {"request": request.to_wire()},
                timeout=self.config.rpc_timeout,
            )
            sent_at = float(response.payload.get("sent_at", trace.now()))  # type: ignore[arg-type]
            net_deps = [
                d
                for d in response.payload.get("sent_deps", [])  # type: ignore[union-attr]
                if isinstance(d, str)
            ]
            # A step's fetches run concurrently and deliberately do not
            # chain; each step serializes behind the previous one's
            # arrivals on this node's ingress link.
            net_deps.extend(after)
            net_gid, net_kw = self._causal_kw(task.ctx, net_deps)
            if net_gid is not None:
                net_kw["sent_at"] = sent_at
            start, end = trace.clip_interval(sent_at, trace.now())
            task.trace.append(
                self._account(
                    trace.phase_record(
                        "network",
                        start,
                        end,
                        self.server_id,
                        nbytes=trace.buffers_nbytes(response.buffers),  # type: ignore[arg-type]
                        src=helper_id,
                        **net_kw,  # type: ignore[arg-type]
                    )
                )
            )
            if net_gid is not None:
                task.state_deps.append(net_gid)
            task.trace.extend(list(response.payload.get("trace", [])))  # type: ignore[arg-type]
            task.traffic.append(
                trace.traffic_record(
                    helper_id,
                    self.server_id,
                    trace.buffers_nbytes(response.buffers),  # type: ignore[arg-type]
                )
            )
            raw[index] = response.buffers
            return net_gid

        try:
            after: "List[str]" = []
            for step in sorted(steps):
                gids = await asyncio.gather(
                    *(fetch(i, spec, after) for i, spec in steps[step])
                )
                after = [gid for gid in gids if gid is not None]
        except RpcError as exc:
            raise LiveRepairError(
                f"raw collection for {repair_id} failed: {exc}"
            ) from exc

        if self.config.compute_delay:
            await asyncio.sleep(self.config.compute_delay)
        decode_gid, decode_kw = self._causal_kw(task.ctx, task.state_deps)
        compute_start = trace.now()
        chunk_payload = recipe.execute_rows(raw)
        task.trace.append(
            self._account(
                trace.phase_record(
                    "compute",
                    compute_start,
                    trace.now(),
                    self.server_id,
                    **decode_kw,  # type: ignore[arg-type]
                )
            )
        )
        if decode_gid is not None:
            task.state_deps = [decode_gid]
        await self._commit_chunk(
            task,
            chunk_id=str(payload["lost_chunk_id"]),
            stripe_id=stripe_id,
            index=int(payload["lost_index"]),  # type: ignore[arg-type]
            payload=chunk_payload,
        )
        return (
            {
                "repair_id": repair_id,
                "destination": self.server_id,
                "trace": task.trace,
                "traffic": task.traffic,
            },
            {0: chunk_payload},
        )

    # ------------------------------------------------------------------
    # Abort
    # ------------------------------------------------------------------
    async def _on_repair_abort(self, frame: Frame) -> "Dict[str, object]":
        repair_id = str(frame.payload["repair_id"])
        if self.config.stream_stall_deadline > 0:
            # A stall already past its deadline is diagnosed before the
            # sweep below erases it: a stalled chain's receivers all pass
            # the deadline together, and whichever watchdog ticks first
            # must not hide the others from the coordinator's blame round.
            self._run_doctor(trace.now())
        task = self.tasks.pop(repair_id, None)
        if task is not None:
            task.abort()
        self.inbox.abort_repair(repair_id, "repair aborted by coordinator")
        return {"aborted": task is not None}
