"""The storage cluster: simulation + topology + servers + metadata.

:class:`StorageCluster` is the top-level object experiments build.  It
owns the event loop, the network fabric, every chunk server and client,
the meta-server, the placement policy, and the ground truth of every
written chunk (used to verify each reconstruction byte-for-byte).

The two testbeds of §7 are available as presets:
:meth:`StorageCluster.smallsite` (16 hosts, 1 Gbps) and
:meth:`StorageCluster.bigsite` (85 hosts, ~1.4 Gbps effective).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, StorageError
from repro.codes.base import ErasureCode
from repro.fs.chunks import Chunk, Stripe
from repro.fs.chunkserver import ChunkServer
from repro.fs.placement import make_placement
from repro.obs.collector import TelemetryCollector, TelemetryShipper
from repro.obs.timeseries import Sampler, TimeSeriesStore
from repro.sim.compute import ComputeModel
from repro.sim.events import Simulation
from repro.sim.metrics import TrafficMatrix
from repro.sim.network import Flow, FlowNetwork
from repro.sim.topology import FatTreeTopology, SingleSwitchTopology, Topology
from repro.util.rng import derive_rng, make_rng
from repro.util.units import MIB, parse_size


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for building a cluster (defaults match SMALLSITE, §7)."""

    num_servers: int = 16
    num_clients: int = 1
    link_bandwidth: "float | str" = "1Gbps"
    disk_bandwidth: "float | str" = "120MB/s"
    cache_bytes: float = 4 * 1024 * MIB
    control_latency: float = 0.0005
    heartbeat_interval: float = 5.0
    failure_detection_timeout: float = 12.0
    #: Real bytes carried per chunk for correctness checking.  Must divide
    #: by every code's ``rows``; 16 KiB works for all shipped codes.
    payload_bytes: int = 16 * 1024
    compute: ComputeModel = field(default_factory=ComputeModel)
    servers_per_rack: int = 8
    #: None -> single switch; a float -> fat-tree with that oversubscription.
    oversubscription: "Optional[float]" = None
    #: TCP-incast modeling on ingress links: goodput collapses once more
    #: than this many flows share one ingress (None disables; see
    #: repro.sim.network.Link).  The paper's testbed shows this regime in
    #: Fig 7d; the fluid default keeps it off for a conservative baseline.
    incast_threshold: "Optional[int]" = None
    incast_gamma: float = 0.4
    #: Placement strategy (:func:`repro.fs.placement.available_placements`).
    placement: str = "random"
    #: Target scatter width for ``copyset`` placement (None -> 2*(n-1)).
    scatter_width: "Optional[int]" = None
    seed: int = 2016


class StorageCluster:
    """A running QFS-like deployment on the simulator."""

    def __init__(self, config: ClusterConfig):
        if config.num_servers < 1:
            raise ConfigurationError("cluster needs at least one server")
        self.config = config
        self.sim = Simulation()
        self.network = FlowNetwork(self.sim)
        self.compute = config.compute
        self.rng = make_rng(config.seed)

        self.server_ids = [
            f"S{i:03d}" for i in range(1, config.num_servers + 1)
        ]
        self.client_ids = [
            f"C{i:02d}" for i in range(1, config.num_clients + 1)
        ]
        node_ids = self.server_ids + self.client_ids
        if config.oversubscription is None:
            self.topology: Topology = SingleSwitchTopology(
                node_ids, config.link_bandwidth
            )
        else:
            self.topology = FatTreeTopology(
                node_ids,
                config.link_bandwidth,
                servers_per_rack=config.servers_per_rack,
                oversubscription=config.oversubscription,
            )

        if config.incast_threshold is not None:
            for link in self.topology.ingress.values():
                link.incast_threshold = config.incast_threshold
                link.incast_gamma = config.incast_gamma

        self.servers: "Dict[str, ChunkServer]" = {
            sid: ChunkServer(
                self, sid, config.disk_bandwidth, config.cache_bytes
            )
            for sid in self.server_ids
        }
        # Clients are created by fs.client to avoid an import cycle.
        from repro.fs.client import Client

        self.clients: "Dict[str, Client]" = {
            cid: Client(self, cid) for cid in self.client_ids
        }

        failure_domain = {
            sid: i // config.servers_per_rack
            for i, sid in enumerate(self.server_ids)
        }
        upgrade_domain = {
            sid: i % 4 for i, sid in enumerate(self.server_ids)
        }
        # Placement draws come from a named child stream, not the
        # cluster-global one: workload randomness (payloads, failure
        # injection) no longer shifts where stripes land, so placement
        # geometry is reproducible from (seed, strategy) alone.
        self.placement = make_placement(
            config.placement,
            failure_domain,
            upgrade_domain,
            rng=derive_rng(config.seed, "placement", config.placement),
            scatter_width=config.scatter_width,
        )

        from repro.fs.metaserver import MetaServer

        self.metaserver = MetaServer(self)

        self.traffic = TrafficMatrix()
        self._stripe_counter = itertools.count(1)
        self._repair_counter = itertools.count(1)
        self._repairs: "Dict[str, object]" = {}
        #: Ground truth: chunk_id -> the read-only row stored at encode time.
        self._truth: "Dict[str, np.ndarray]" = {}
        #: Continuous telemetry, populated by :meth:`enable_telemetry`.
        self.telemetry: "Optional[TimeSeriesStore]" = None
        self._sampler: "Optional[Sampler]" = None
        #: Fleet collector (tiered retention + rollups), populated by
        #: :meth:`enable_collector`.
        self.collector: "Optional[TelemetryCollector]" = None
        self._collector_shipper: "Optional[TelemetryShipper]" = None
        self._collector_last_ship: float = 0.0
        #: QoS admission controller, populated by :meth:`enable_qos`.
        self.admission = None

    # ------------------------------------------------------------------
    # Presets for the paper's two testbeds
    # ------------------------------------------------------------------
    @classmethod
    def smallsite(cls, **overrides) -> "StorageCluster":
        """The 16-host, 1 Gbps lab cluster of §7 (one machine per rack)."""
        defaults = dict(num_servers=16, servers_per_rack=1)
        defaults.update(overrides)
        return cls(replace(ClusterConfig(), **defaults))

    @classmethod
    def bigsite(cls, **overrides) -> "StorageCluster":
        """The 85-host production cluster (measured ~1.4 Gbps)."""
        defaults = dict(num_servers=85, link_bandwidth="1.4Gbps")
        defaults.update(overrides)
        return cls(replace(ClusterConfig(), **defaults))

    # ------------------------------------------------------------------
    # Node lookup
    # ------------------------------------------------------------------
    def node(self, node_id: str):
        if node_id in self.servers:
            return self.servers[node_id]
        if node_id in self.clients:
            return self.clients[node_id]
        raise StorageError(f"unknown node {node_id!r}")

    def chunk_server(self, server_id: str) -> ChunkServer:
        server = self.servers.get(server_id)
        if server is None:
            raise StorageError(f"unknown chunk server {server_id!r}")
        return server

    def client(self, client_id: "Optional[str]" = None):
        if client_id is None:
            client_id = self.client_ids[0]
        return self.clients[client_id]

    def alive_servers(self) -> "List[str]":
        return [sid for sid, srv in self.servers.items() if srv.alive]

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send_control(
        self, dst_node_id: str, fn: "Callable[..., None]", *args
    ) -> None:
        """Small control message: fixed latency, no bandwidth accounting.

        Messages to servers that are dead *at delivery time* are dropped —
        like a lost RPC, the sender recovers via the RM's repair timeout.
        """

        def deliver() -> None:
            server = self.servers.get(dst_node_id)
            if server is not None and not server.alive:
                return
            fn(*args)

        self.sim.schedule(self.config.control_latency, deliver)

    def start_flow(
        self,
        src: str,
        dst: str,
        nbytes: float,
        on_complete: "Callable[[Flow], None]",
        traffic_class: str = "foreground",
    ) -> Flow:
        """Bulk transfer over the topology path from ``src`` to ``dst``.

        ``traffic_class`` tags the flow for QoS accounting and admission
        control ("foreground" user reads, "degraded" reads, "repair"
        reconstruction traffic); all classes share the same max-min
        fair-share computation once admitted.
        """

        def done(flow: Flow) -> None:
            self.traffic.add(src, dst, nbytes)
            on_complete(flow)

        return self.network.start_flow(
            self.topology.path(src, dst),
            nbytes,
            done,
            src=src,
            dst=dst,
            traffic_class=traffic_class,
        )

    # ------------------------------------------------------------------
    # Data plane: writing stripes
    # ------------------------------------------------------------------
    def write_stripe(
        self,
        code: ErasureCode,
        chunk_size: "float | str",
        data: "Optional[np.ndarray]" = None,
        hosts: "Optional[Sequence[str]]" = None,
    ) -> Stripe:
        """Encode and place one stripe; returns its metadata.

        ``chunk_size`` is the *modeled* per-chunk size (e.g. ``"64MiB"``);
        real payloads are ``config.payload_bytes`` per chunk.  ``data`` may
        supply the real payload stack ``(k, payload_bytes)``; random bytes
        otherwise.
        """
        modeled = float(parse_size(chunk_size))
        payload_len = self.config.payload_bytes
        if payload_len % code.rows:
            raise ConfigurationError(
                f"payload_bytes={payload_len} not divisible by code rows "
                f"{code.rows}"
            )
        if data is None:
            data = self.rng.integers(
                0, 256, size=(code.k, payload_len), dtype=np.uint8
            )
        else:
            data = np.asarray(data, dtype=np.uint8)
            if data.shape != (code.k, payload_len):
                raise ConfigurationError(
                    f"data must have shape ({code.k}, {payload_len})"
                )
        encoded = code.encode(data)
        encoded.flags.writeable = False  # chunks and truth share its rows

        stripe_id = f"stripe-{next(self._stripe_counter):04d}"
        chunk_ids = [f"{stripe_id}/chunk-{i:02d}" for i in range(code.n)]
        if hosts is None:
            hosts = self.placement.place_stripe(self.alive_servers(), code.n)
        elif len(hosts) != code.n:
            raise ConfigurationError(
                f"need {code.n} hosts, got {len(hosts)}"
            )
        stripe = Stripe(
            stripe_id=stripe_id,
            code=code,
            chunk_ids=chunk_ids,
            chunk_size=modeled,
            payload_len=payload_len,
        )
        for index, (chunk_id, host) in enumerate(zip(chunk_ids, hosts)):
            payload = encoded[index]
            chunk = Chunk(
                chunk_id=chunk_id,
                stripe_id=stripe_id,
                index=index,
                payload=payload,
                size=modeled,
            )
            self.servers[host].store_chunk(chunk)
            self._truth[chunk_id] = payload
            self.metaserver.register_chunk(chunk_id, host)
        self.metaserver.register_stripe(stripe, list(hosts))
        return stripe

    def truth_payload(self, chunk_id: str) -> "Optional[np.ndarray]":
        return self._truth.get(chunk_id)

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def kill_server(self, server_id: str) -> "List[str]":
        """Crash a chunk server; returns the chunk ids it hosted.

        In-flight bulk transfers to or from the victim are aborted (their
        completion callbacks never fire), so repairs that depended on it
        stall until the Repair-Manager's timeout reschedules them.
        """
        server = self.chunk_server(server_id)
        if not server.alive:
            return []
        lost = list(server.chunks)
        server.kill()
        self.network.cancel_flows_touching(server_id)
        self.metaserver.server_failed(server_id)
        return lost

    # ------------------------------------------------------------------
    # Repair registry (contexts are created by the coordinator)
    # ------------------------------------------------------------------
    def new_repair_id(self) -> str:
        return f"repair-{next(self._repair_counter):05d}"

    def register_repair(self, context) -> None:
        self._repairs[context.repair_id] = context

    def repair_context(self, repair_id: str):
        return self._repairs.get(repair_id)

    def repair_finished(self, context, chunk_payload: np.ndarray) -> None:
        """Called by the context on completion; commits metadata updates."""
        self._repairs.pop(context.repair_id, None)
        if context.kind != "repair":
            return
        chunk_id = context.stripe.chunk_ids[context.lost_index]
        destination = context.destination
        server = self.servers.get(destination)
        if server is None or not server.alive:
            return
        chunk_payload.flags.writeable = False  # the repair is done with it
        server.store_chunk(
            Chunk(
                chunk_id=chunk_id,
                stripe_id=context.stripe.stripe_id,
                index=context.lost_index,
                payload=chunk_payload,
                size=context.chunk_size,
            )
        )
        server.active_repair_destinations = max(
            0, server.active_repair_destinations - 1
        )
        self.metaserver.register_chunk(chunk_id, destination)
        self.metaserver.repair_completed(context)

    # ------------------------------------------------------------------
    # Continuous telemetry
    # ------------------------------------------------------------------
    def enable_telemetry(
        self, interval: float = 0.05, capacity: int = 512
    ) -> TimeSeriesStore:
        """Sample cluster health into bounded time series every ``interval``
        virtual seconds.

        Registers per-server probes — ingress/egress link utilization,
        disk queue depth, cache occupancy — plus the cluster-wide inflight
        repair count, driven by a clock observer on the event loop.  The
        sampler piggybacks on executed events (it schedules nothing), so
        enabling telemetry changes simulation results by exactly zero.

        Idempotent: calling again returns the existing store.
        """
        if self.telemetry is not None:
            return self.telemetry
        store = TimeSeriesStore(capacity=capacity)
        sampler = Sampler(store, interval=interval)
        specs = []
        ingress_links = self.topology.ingress
        egress_links = self.topology.egress
        # Through the network, not Link.utilization: it solves rates a
        # change earlier in this instant left stale.
        utilization = self.network.utilization
        for sid in self.server_ids:
            server = self.servers[sid]
            labels = {"node": sid}
            ingress = ingress_links.get(sid)
            egress = egress_links.get(sid)
            if ingress is not None:
                specs.append((
                    "net.ingress_util", labels,
                    lambda link=ingress: utilization(link),
                ))
            if egress is not None:
                specs.append((
                    "net.egress_util", labels,
                    lambda link=egress: utilization(link),
                ))
            specs.append(
                (
                    "disk.queue_depth",
                    labels,
                    lambda disk=server.disk: disk.queue_depth,
                )
            )
            specs.append(
                (
                    "cache.occupancy",
                    labels,
                    lambda cache=server.cache: cache.occupancy,
                )
            )
        specs.append(
            ("repairs.inflight", {}, lambda: len(self._repairs))
        )
        sampler.add_probes(specs)
        self.sim.add_clock_observer(sampler.observe_clock)
        self.telemetry = store
        self._sampler = sampler
        if self.admission is not None:
            self._register_qos_probes()
        return store

    def enable_collector(
        self,
        ship_interval: "Optional[float]" = None,
        raw_capacity: int = 512,
        max_queue: int = 8,
    ) -> TelemetryCollector:
        """Funnel the cluster's telemetry through the fleet collector.

        Enables :meth:`enable_telemetry` if it is not already on, then
        ships the sampled series into a
        :class:`~repro.obs.collector.TelemetryCollector` on the
        heartbeat cadence (``ship_interval`` defaults to
        ``config.heartbeat_interval``) via the *same*
        :class:`~repro.obs.collector.TelemetryShipper` delta/cursor code
        path live nodes use — so sim and live share one rollup, query
        and cockpit surface.  Shipping piggybacks on a clock observer
        (no events scheduled): enabling the collector changes simulated
        results by exactly zero.

        Idempotent: calling again returns the existing collector.
        """
        if self.collector is not None:
            return self.collector
        store = self.enable_telemetry()
        interval = (
            float(ship_interval)
            if ship_interval is not None
            else self.config.heartbeat_interval
        )
        if interval <= 0:
            raise ConfigurationError(
                f"ship_interval must be > 0, got {interval}"
            )
        collector = TelemetryCollector(raw_capacity=raw_capacity)
        shipper = TelemetryShipper(
            "sim", store, max_queue=max_queue
        )
        self.collector = collector
        self._collector_shipper = shipper
        self._collector_last_ship = 0.0

        def ship(now: float) -> None:
            if now - self._collector_last_ship >= interval:
                self._collector_last_ship = now
                shipper.collect(now)
                shipper.flush(collector.ingest)

        self.sim.add_clock_observer(ship)
        return collector

    # ------------------------------------------------------------------
    # QoS admission control
    # ------------------------------------------------------------------
    def enable_qos(self, config=None):
        """Attach a two-class admission controller to the fabric.

        Repair-class flows are paced by per-egress-link token buckets;
        foreground and degraded reads pass undelayed (see
        :mod:`repro.qos.admission`).  Idempotent: calling again returns
        the existing controller.
        """
        if self.admission is not None:
            return self.admission
        from repro.qos.admission import AdmissionController

        controller = AdmissionController(config)
        self.admission = controller
        self.network.admission = controller
        if self._sampler is not None:
            self._register_qos_probes()
        return controller

    def _register_qos_probes(self) -> None:
        """Per-class byte counters + bucket occupancy into telemetry."""
        assert self._sampler is not None and self.admission is not None
        network = self.network
        self._sampler.add_probes(
            [
                (
                    "qos.class_bytes",
                    {"class": cls},
                    lambda c=cls: network.class_bytes_moved.get(c, 0.0),
                )
                for cls in ("foreground", "degraded", "repair")
            ]
            + [
                (
                    "qos.bucket.occupancy",
                    {},
                    self.admission.mean_occupancy,
                )
            ]
        )

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------
    def run(self, until: "Optional[float]" = None) -> float:
        return self.sim.run(until)
