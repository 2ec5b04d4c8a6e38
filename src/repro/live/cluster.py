"""In-process live cluster harness: N servers + meta on one event loop.

Everything is *real* — every server binds its own TCP port on loopback
and all traffic crosses sockets — but the processes are asyncio tasks in
one interpreter, which is what lets integration tests start a cluster,
kill a server at a deterministic instant, and assert on internals like a
victim's active repair tasks.  The CLI (``python -m repro serve``) runs
the same classes as separate OS processes.

Stripes are encoded with the *same* codecs the simulator uses
(:func:`repro.codes.registry.make_code`), and the harness keeps the
ground-truth payloads so every live repair doubles as a byte-correctness
check against central decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.codes.registry import make_code
from repro.errors import ConfigurationError, ServerUnavailableError
from repro.live.chunkserver import LiveChunkServer
from repro.live.config import LiveConfig
from repro.live.coordinator import LiveCoordinator, LiveRepairReport
from repro.live.metaserver import LiveMetaServer
from repro.live.rpc import RpcClientPool
from repro.live.wire import MessageType
from repro.util.rng import make_rng
from repro.util.units import parse_size


@dataclass
class LiveStripe:
    """Metadata the harness keeps about one written stripe."""

    stripe_id: str
    spec: str
    chunk_ids: "List[str]"
    hosts: "List[str]"
    chunk_size: float
    payload_len: int


class LiveCluster:
    """One meta-server plus ``num_servers`` chunk servers on loopback."""

    def __init__(
        self,
        num_servers: int = 7,
        config: "Optional[LiveConfig]" = None,
        payload_bytes: int = 1152,
        seed: int = 7,
    ):
        if num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        self.config = config or LiveConfig()
        self.payload_bytes = payload_bytes
        self.rng = make_rng(seed)
        self.meta = LiveMetaServer(self.config)
        self.servers: "Dict[str, LiveChunkServer]" = {}
        self.server_ids = [f"cs-{i:02d}" for i in range(num_servers)]
        self.coordinator: "Optional[LiveCoordinator]" = None
        self.pool = RpcClientPool(self.config)
        self.stripes: "Dict[str, LiveStripe]" = {}
        self._truth: "Dict[str, np.ndarray]" = {}
        self._stripe_seq = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, meta_port: int = 0) -> None:
        await self.meta.start(port=meta_port)
        for server_id in self.server_ids:
            server = LiveChunkServer(
                server_id, self.meta.address, self.config
            )
            await server.start()
            self.servers[server_id] = server
        self.coordinator = LiveCoordinator(self.meta.address, self.config)
        self._started = True

    async def stop(self) -> None:
        self._started = False
        if self.coordinator is not None:
            await self.coordinator.close()
            self.coordinator = None
        for server in self.servers.values():
            await server.stop()
        await self.pool.close()
        await self.meta.stop()

    async def __aenter__(self) -> "LiveCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    def server(self, server_id: str) -> LiveChunkServer:
        server = self.servers.get(server_id)
        if server is None:
            raise ServerUnavailableError(f"unknown server {server_id!r}")
        return server

    async def kill_server(self, server_id: str) -> "List[str]":
        """Crash a chunk server; returns the chunk ids it hosted.

        Also fast-forwards the meta-server's failure detection (drops the
        victim's last heartbeat) so tests need not wait out the real
        ``failure_detection_timeout`` — the staleness *rule* itself is
        covered by the metaserver unit tests.
        """
        server = self.server(server_id)
        lost = sorted(server.chunks)
        await server.kill()
        self.meta.last_heartbeat.pop(server_id, None)
        return lost

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    async def write_stripe(
        self,
        spec: str,
        chunk_size: "float | str" = "64MiB",
        data: "Optional[np.ndarray]" = None,
        hosts: "Optional[Sequence[str]]" = None,
    ) -> LiveStripe:
        """Encode one stripe and place its chunks over TCP.

        Same encode math as the simulator's ``write_stripe``; chunks land
        via PUT_CHUNK RPCs, metadata via REGISTER_STRIPE.
        """
        assert self._started, "cluster not started"
        code = make_code(spec)
        modeled = float(parse_size(chunk_size))
        if self.payload_bytes % code.rows:
            raise ConfigurationError(
                f"payload_bytes={self.payload_bytes} not divisible by "
                f"code rows {code.rows}"
            )
        if data is None:
            data = self.rng.integers(
                0, 256, size=(code.k, self.payload_bytes), dtype=np.uint8
            )
        encoded = code.encode(np.asarray(data, dtype=np.uint8))

        self._stripe_seq += 1
        stripe_id = f"live-stripe-{self._stripe_seq:04d}"
        chunk_ids = [f"{stripe_id}/chunk-{i:02d}" for i in range(code.n)]
        if hosts is None:
            if code.n > len(self.server_ids):
                raise ConfigurationError(
                    f"{code.n}-chunk stripe needs {code.n} servers, have "
                    f"{len(self.server_ids)}"
                )
            offset = (self._stripe_seq - 1) % len(self.server_ids)
            ring = self.server_ids[offset:] + self.server_ids[:offset]
            hosts = ring[: code.n]
        elif len(hosts) != code.n:
            raise ConfigurationError(f"need {code.n} hosts, got {len(hosts)}")

        for index, (chunk_id, host) in enumerate(zip(chunk_ids, hosts)):
            payload = np.ascontiguousarray(encoded[index], dtype=np.uint8)
            client = self.pool.get(self.server(host).address)
            await client.call(
                MessageType.PUT_CHUNK,
                {
                    "chunk_id": chunk_id,
                    "stripe_id": stripe_id,
                    "index": index,
                },
                buffers={0: payload},
            )
            # The server's copy arrived over TCP into its own buffer, so
            # the encoder's row is the truth as is; freeze it instead of
            # copying it.
            payload.flags.writeable = False
            self._truth[chunk_id] = payload

        meta_client = self.pool.get(self.meta.address)
        await meta_client.call(
            MessageType.REGISTER_STRIPE,
            {
                "stripe_id": stripe_id,
                "spec": spec,
                "chunk_ids": chunk_ids,
                "chunk_size": modeled,
                "payload_len": self.payload_bytes,
                "hosts": dict(zip(chunk_ids, hosts)),
            },
        )
        stripe = LiveStripe(
            stripe_id=stripe_id,
            spec=spec,
            chunk_ids=chunk_ids,
            hosts=list(hosts),
            chunk_size=modeled,
            payload_len=self.payload_bytes,
        )
        self.stripes[stripe_id] = stripe
        return stripe

    def truth_payload(self, chunk_id: str) -> "Optional[np.ndarray]":
        return self._truth.get(chunk_id)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    async def repair(
        self,
        stripe_id: str,
        lost_index: "Optional[int]" = None,
        strategy: str = "ppr",
        destination: "Optional[str]" = None,
        on_attempt: "Optional[object]" = None,
        num_slices: int = 1,
    ) -> LiveRepairReport:
        """Run a live repair, verified against the ground-truth payload."""
        assert self.coordinator is not None, "cluster not started"
        stripe = self.stripes.get(stripe_id)
        expected: "Optional[np.ndarray]" = None
        if stripe is not None and lost_index is not None:
            expected = self.truth_payload(stripe.chunk_ids[lost_index])
        report = await self.coordinator.repair(
            stripe_id,
            lost_index=lost_index,
            strategy=strategy,
            destination=destination,
            expected_payload=expected,
            on_attempt=on_attempt,  # type: ignore[arg-type]
            num_slices=num_slices,
        )
        if expected is None and stripe is not None:
            truth = self.truth_payload(
                stripe.chunk_ids[report.result.lost_index]
            )
            if truth is not None:
                report.result.verified = bool(
                    np.array_equal(report.payload, truth)
                )
        return report
