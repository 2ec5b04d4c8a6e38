"""The meta-server as a real TCP service.

Live counterpart of :class:`repro.fs.metaserver.MetaServer`: tracks
cluster membership (``HELLO`` + heartbeats), stripe metadata
(``REGISTER_STRIPE``) and chunk placement (``CHUNK_ADDED``), and answers
the lookups a live repair needs (``LOCATE_STRIPE``, ``LIST_SERVERS``).

Failure detection reuses the exact simulator rule —
:func:`repro.fs.metaserver.heartbeat_is_stale` — against the wall clock:
a server whose last heartbeat is older than
``LiveConfig.failure_detection_timeout`` is reported dead.  A ``HELLO``
counts as the first heartbeat so a freshly started server is immediately
usable.

Stripe metadata travels as plain wire dicts (code *spec* string, chunk id
list, sizes); the coordinator rebuilds the actual
:class:`~repro.codes.base.ErasureCode` via the registry when planning.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.errors import ChunkNotFoundError
from repro.fs.messages import Heartbeat
from repro.fs.metaserver import heartbeat_is_stale
from repro import obs
from repro.live import trace
from repro.live.config import TELEMETRY_CAPACITY, LiveConfig
from repro.live.rpc import Address, RpcServer
from repro.obs import causal
from repro.obs.anomaly import (
    AnomalyEngine,
    StragglerDetector,
    phase_medians,
    straggler_phases,
)
from repro.obs.collector import TelemetryCollector, TelemetryShipper
from repro.obs.doctor import IncidentStore
from repro.live.wire import Frame, MessageType
from repro.obs.timeseries import Sampler, TimeSeriesStore

#: A server whose busiest repair phase exceeds this multiple of the fleet
#: median for that phase is flagged a straggler (HEALTH may override it
#: per call).
STRAGGLER_THRESHOLD = 3.0


class LiveMetaServer:
    """Centralized live metadata service."""

    def __init__(self, config: "Optional[LiveConfig]" = None):
        self.config = config or LiveConfig()
        self.rpc = RpcServer("meta", self.config)
        self.servers: "Dict[str, Address]" = {}
        self.last_heartbeat: "Dict[str, Heartbeat]" = {}
        #: Latest health dict piggybacked on each server's heartbeat.
        self.last_health: "Dict[str, Dict[str, object]]" = {}
        #: Stripe wire metadata: ``stripe_id -> {spec, chunk_ids, ...}``.
        self.stripes: "Dict[str, Dict[str, object]]" = {}
        self.stripe_of_chunk: "Dict[str, str]" = {}
        self.chunk_locations: "Dict[str, str]" = {}
        self._telemetry_task: "Optional[asyncio.Task[None]]" = None
        #: Fleet-level time series, sampled on the wall clock.
        self.telemetry = TimeSeriesStore(capacity=TELEMETRY_CAPACITY)
        self._sampler = Sampler(
            self.telemetry, interval=self.config.telemetry_interval
        )
        self._sampler.add_probe(
            "servers.alive",
            lambda: float(len(self.alive_servers())),
            node="meta",
        )
        self._sampler.add_probe(
            "servers.known", lambda: float(len(self.servers)), node="meta"
        )
        self._sampler.add_probe(
            "stripes.registered",
            lambda: float(len(self.stripes)),
            node="meta",
        )

        #: Fleet telemetry collector: every node pushes TELEMETRY batches
        #: here; COLLECTOR_QUERY serves the cockpit from this one place.
        #: Always hosted (ingest is cheap and idempotent); whether nodes
        #: push is their own ``collector_enabled`` knob.
        self.collector = TelemetryCollector()
        #: The meta-server ships its own series into the collector
        #: in-process — same shipper code path as remote nodes, no wire.
        self._collector_shipper = TelemetryShipper("meta", self.telemetry)
        self._collector_last_ship = 0.0

        # Doctor: fleet-level anomaly detection (stragglers) + incidents.
        self.incidents = IncidentStore(
            directory=self.config.incident_dir or None, node="meta"
        )
        self._doctor = AnomalyEngine(cooldown=30.0).add(
            StragglerDetector(
                lambda: self.last_health, threshold=STRAGGLER_THRESHOLD
            )
        )

        register = self.rpc.register
        register(MessageType.PING, self._on_ping)
        register(MessageType.HELLO, self._on_hello)
        register(MessageType.HEARTBEAT, self._on_heartbeat)
        register(MessageType.REGISTER_STRIPE, self._on_register_stripe)
        register(MessageType.LOCATE_STRIPE, self._on_locate_stripe)
        register(MessageType.CHUNK_ADDED, self._on_chunk_added)
        register(MessageType.LIST_SERVERS, self._on_list_servers)
        register(MessageType.STATS, self._on_stats)
        register(MessageType.HEALTH, self._on_health)
        register(MessageType.DOCTOR, self._on_doctor)
        register(MessageType.TELEMETRY, self._on_telemetry)
        register(MessageType.COLLECTOR_QUERY, self._on_collector_query)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        assert self.rpc.address is not None, "meta-server not started"
        return self.rpc.address

    async def start(self, port: int = 0) -> Address:
        address = await self.rpc.start(port=port)
        self._telemetry_task = asyncio.create_task(self._telemetry_loop())
        return address

    async def stop(self) -> None:
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except (asyncio.CancelledError, Exception):
                pass
            self._telemetry_task = None
        await self.rpc.close()

    async def _telemetry_loop(self) -> None:
        while True:
            now = trace.now()
            self._sampler.sample(now)
            try:
                for anomaly in self._doctor.run(now):
                    self.incidents.file(
                        anomaly, store=self.telemetry, clock="wall"
                    )
            except Exception:
                pass  # diagnosis must never take the meta-server down
            if now - self._collector_last_ship >= self.config.heartbeat_interval:
                # Ship the meta-server's own series on heartbeat cadence
                # (in-process ingest: no wire hop for the host node).
                self._collector_last_ship = now
                self._collector_shipper.collect(now)
                self._collector_shipper.flush(self.collector.ingest)
            await asyncio.sleep(self.config.telemetry_interval)

    # ------------------------------------------------------------------
    # Liveness view
    # ------------------------------------------------------------------
    def server_is_alive(self, server_id: str) -> bool:
        if server_id not in self.servers:
            return False
        return not heartbeat_is_stale(
            self.last_heartbeat.get(server_id),
            trace.now(),
            self.config.failure_detection_timeout,
        )

    def alive_servers(self) -> "Dict[str, Address]":
        return {
            sid: addr
            for sid, addr in self.servers.items()
            if self.server_is_alive(sid)
        }

    def _synthetic_beat(self, server_id: str) -> Heartbeat:
        return Heartbeat(
            server_id=server_id,
            time=trace.now(),
            cached_chunk_ids=frozenset(),
            active_reconstructions=0,
            active_repair_destinations=0,
            user_load_bytes=0.0,
            disk_queue_delay=0.0,
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _on_ping(self, frame: Frame) -> "Dict[str, object]":
        return {
            "server_id": "meta",
            "servers": len(self.servers),
            "stripes": len(self.stripes),
        }

    async def _on_hello(self, frame: Frame) -> "Dict[str, object]":
        server_id = str(frame.payload["server_id"])
        address = Address.from_wire(frame.payload["address"])  # type: ignore[arg-type]
        self.servers[server_id] = address
        # HELLO doubles as the first heartbeat: a newborn server must not
        # look stale before its heartbeat loop ticks.
        self.last_heartbeat[server_id] = self._synthetic_beat(server_id)
        return {"registered": server_id}

    async def _on_heartbeat(self, frame: Frame) -> "Dict[str, object]":
        beat = Heartbeat.from_wire(frame.payload["beat"])  # type: ignore[arg-type]
        self.last_heartbeat[beat.server_id] = beat
        health = frame.payload.get("health")
        if isinstance(health, dict):
            self.last_health[beat.server_id] = health
        return {"acknowledged": beat.server_id}

    async def _on_register_stripe(self, frame: Frame) -> "Dict[str, object]":
        payload = frame.payload
        stripe_id = str(payload["stripe_id"])
        chunk_ids = [str(c) for c in list(payload["chunk_ids"])]  # type: ignore[arg-type]
        self.stripes[stripe_id] = {
            "stripe_id": stripe_id,
            "spec": str(payload["spec"]),
            "chunk_ids": chunk_ids,
            "chunk_size": float(payload["chunk_size"]),  # type: ignore[arg-type]
            "payload_len": int(payload["payload_len"]),  # type: ignore[arg-type]
        }
        for chunk_id in chunk_ids:
            self.stripe_of_chunk[chunk_id] = stripe_id
        for chunk_id, server_id in dict(payload.get("hosts", {})).items():  # type: ignore[union-attr]
            self.chunk_locations[str(chunk_id)] = str(server_id)
        return {"registered": stripe_id}

    async def _on_chunk_added(self, frame: Frame) -> "Dict[str, object]":
        chunk_id = str(frame.payload["chunk_id"])
        server_id = str(frame.payload["server_id"])
        self.chunk_locations[chunk_id] = server_id
        return {"located": chunk_id}

    async def _on_locate_stripe(self, frame: Frame) -> "Dict[str, object]":
        lookup_start = trace.now()
        stripe_id = str(frame.payload["stripe_id"])
        stripe = self.stripes.get(stripe_id)
        if stripe is None:
            raise ChunkNotFoundError(f"unknown stripe {stripe_id!r}")
        locations: "Dict[str, Dict[str, object]]" = {}
        for chunk_id in stripe["chunk_ids"]:  # type: ignore[union-attr]
            server_id = self.chunk_locations.get(str(chunk_id))
            if server_id is None or not self.server_is_alive(server_id):
                continue
            locations[str(chunk_id)] = {
                "server_id": server_id,
                "address": list(self.servers[server_id].to_wire()),
            }
        tracer = obs.tracer()
        ctx = causal.current()
        if tracer is not None and ctx is not None:
            # Metadata lookups are control-plane work: tag them with the
            # caller's trace id so a stitched DAG can show where the
            # repair's planning time went, without joining the data path.
            tracer.record_span(
                "live.meta.locate_stripe",
                lookup_start,
                trace.now(),
                node="meta",
                category="live.meta",
                trace_id=ctx.trace_id,
                stripe=stripe_id,
            )
        return {
            "stripe": dict(stripe),
            "locations": locations,
            "alive": sorted(self.alive_servers()),
        }

    async def _on_list_servers(self, frame: Frame) -> "Dict[str, object]":
        lookup_start = trace.now()
        reply = {
            "servers": {
                sid: list(addr.to_wire())
                for sid, addr in sorted(self.servers.items())
            },
            "alive": sorted(self.alive_servers()),
        }
        tracer = obs.tracer()
        ctx = causal.current()
        if tracer is not None and ctx is not None:
            tracer.record_span(
                "live.meta.list_servers",
                lookup_start,
                trace.now(),
                node="meta",
                category="live.meta",
                trace_id=ctx.trace_id,
            )
        return reply

    # ------------------------------------------------------------------
    # Telemetry: fleet health + straggler detection
    # ------------------------------------------------------------------
    def _phase_medians(self) -> "Dict[str, float]":
        """Fleet median busy-seconds per phase, over reporting servers.

        Delegates to :func:`repro.obs.anomaly.phase_medians` — the same
        math the :class:`~repro.obs.anomaly.StragglerDetector` runs, so
        the HEALTH flag and the doctor's incidents can never disagree.
        """
        return phase_medians(self.last_health)

    def fleet_health(
        self, threshold: "Optional[float]" = None
    ) -> "Dict[str, Dict[str, object]]":
        """Per-server health: last pushed counters + liveness + stragglers.

        A server is flagged a straggler when any of its per-phase busy
        times exceeds ``threshold`` (default
        :data:`STRAGGLER_THRESHOLD`) times the fleet median for
        that phase — the signature the paper's repair pipelining fights:
        one slow peer serializing the whole phase.
        """
        if threshold is None:
            threshold = STRAGGLER_THRESHOLD
        now = trace.now()
        medians = self._phase_medians()
        fleet: "Dict[str, Dict[str, object]]" = {}
        for server_id in sorted(self.servers):
            health: "Dict[str, object]" = dict(
                self.last_health.get(server_id, {})
            )
            beat = self.last_heartbeat.get(server_id)
            health["server_id"] = server_id
            health["heartbeat_age"] = (
                now - beat.time if beat is not None else None
            )
            health["alive"] = self.server_is_alive(server_id)
            slow: "List[str]" = []
            busy = health.get("phase_busy")
            if isinstance(busy, dict):
                slow = straggler_phases(busy, medians, threshold)
            health["straggler"] = bool(slow)
            health["straggler_phases"] = slow
            fleet[server_id] = health
        return fleet

    async def _on_stats(self, frame: Frame) -> "Dict[str, object]":
        payload = frame.payload
        start = payload.get("start")
        end = payload.get("end")
        return {
            "server_id": "meta",
            "time": trace.now(),
            "series": self.telemetry.snapshot(
                float(start) if start is not None else None,  # type: ignore[arg-type]
                float(end) if end is not None else None,  # type: ignore[arg-type]
            ),
            "health": self.fleet_health(),
        }

    async def _on_health(self, frame: Frame) -> "Dict[str, object]":
        threshold = frame.payload.get("threshold")
        return {
            "server_id": "meta",
            "time": trace.now(),
            "threshold": (
                float(threshold)  # type: ignore[arg-type]
                if threshold is not None
                else STRAGGLER_THRESHOLD
            ),
            "servers": self.fleet_health(
                float(threshold) if threshold is not None else None  # type: ignore[arg-type]
            ),
        }

    async def _on_telemetry(self, frame: Frame) -> "Dict[str, object]":
        """TELEMETRY RPC: one pushed batch into the hosted collector."""
        return self.collector.ingest(dict(frame.payload))

    async def _on_collector_query(self, frame: Frame) -> "Dict[str, object]":
        """COLLECTOR_QUERY RPC: the one-RPC cockpit (query/fleet/top/
        prom/stats against the collector's tiered retention)."""
        return self.collector.handle_query(
            dict(frame.payload),
            now=trace.now(),
            stale_after=self.config.failure_detection_timeout,
        )

    async def _on_doctor(self, frame: Frame) -> "Dict[str, object]":
        """DOCTOR RPC: the meta-server's incidents (fleet stragglers)."""
        incident_id = frame.payload.get("incident_id")
        if incident_id is not None:
            return {
                "server_id": "meta",
                "incident": self.incidents.get(str(incident_id)),
            }
        repair_id = frame.payload.get("repair_id")
        return {
            "server_id": "meta",
            "time": trace.now(),
            "incidents": self.incidents.list(),
            "anomalies": self.incidents.anomalies(
                str(repair_id) if repair_id else None
            ),
        }
