"""Tunables of the live (asyncio TCP) deployment mode.

Defaults are sized for localhost integration tests: short enough that a
dead peer is detected in well under a second, long enough that a loaded
CI machine does not produce spurious timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Ring capacity per telemetry series of a live node (samples retained).
TELEMETRY_CAPACITY = 256


@dataclass(frozen=True)
class LiveConfig:
    """Knobs shared by live servers, clients and the coordinator."""

    #: Interface servers bind; keep on loopback unless you mean it.
    host: str = "127.0.0.1"
    #: TCP connect budget per attempt, seconds.
    connect_timeout: float = 2.0
    #: Default per-RPC response budget, seconds (PING, acks, reads).
    rpc_timeout: float = 5.0
    #: Budget for one whole repair attempt at the destination: how long
    #: the destination waits for its subtree's partials before declaring
    #: the attempt dead.
    partial_wait_timeout: float = 5.0
    #: Coordinator-side budget for one repair attempt end to end.
    repair_timeout: float = 10.0
    #: Bounded retries for reconnectable failures (per RPC).
    max_retries: int = 2
    #: Exponential backoff: ``backoff_base * 2**attempt`` capped at
    #: ``backoff_max`` seconds between retries.
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    #: Chunk server -> meta-server heartbeat period, seconds.
    heartbeat_interval: float = 2.0
    #: A server whose last heartbeat is older than this is presumed dead
    #: (same rule as the simulator's failure detection).
    failure_detection_timeout: float = 6.0
    #: Replan budget: how many plan attempts one repair may consume.
    max_attempts: int = 2
    #: Largest frame the codec will accept, bytes (sanity bound against
    #: corrupt length prefixes).
    max_frame_bytes: int = 256 * 1024 * 1024
    #: Artificial seconds of extra latency per local partial computation.
    #: Zero in production; failure tests raise it to hold a repair open
    #: long enough to kill servers mid-flight deterministically.
    compute_delay: float = 0.0
    #: Wall-clock seconds between telemetry samples (each server runs a
    #: background sampling task recording into its time-series store).
    telemetry_interval: float = 0.25
    #: QoS: per-server cap on repair-class egress (partial results and
    #: raw-row replies), bytes/second.  0 disables pacing entirely;
    #: foreground GET_CHUNK traffic is never paced.
    repair_rate_limit: float = 0.0
    #: QoS: burst allowance of the repair pacer, bytes.
    repair_burst_bytes: float = 4 * 1024 * 1024
    #: Doctor: an open inbound stream with no STREAM_DATA progress for
    #: this many wall seconds is declared stalled — the watchdog files an
    #: incident, aborts the stream and its repair task, and the abort
    #: cascades so the coordinator replans.  0 disables the watchdog
    #: (recovery then falls back to the passive slice timeouts).
    stream_stall_deadline: float = 0.0
    #: Doctor: directory where incident-<id>.json bundles are mirrored
    #: ("" keeps them memory-only, served over the DOCTOR RPC).
    incident_dir: str = ""
    #: Collector: when True, chunk servers (and the coordinator) push
    #: TELEMETRY batches to the meta-server-hosted collector on the
    #: heartbeat cadence.  Off by default — the collector's ingest and
    #: COLLECTOR_QUERY handlers are always registered, so a fleet can be
    #: queried the moment pushing is switched on.
    collector_enabled: bool = False

    def __post_init__(self) -> None:
        for name in (
            "connect_timeout",
            "rpc_timeout",
            "partial_wait_timeout",
            "repair_timeout",
            "backoff_base",
            "backoff_max",
            "heartbeat_interval",
            "failure_detection_timeout",
            "telemetry_interval",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.compute_delay < 0:
            raise ConfigurationError("compute_delay must be >= 0")
        if self.repair_rate_limit < 0:
            raise ConfigurationError("repair_rate_limit must be >= 0")
        if self.repair_burst_bytes <= 0:
            raise ConfigurationError("repair_burst_bytes must be > 0")
        if self.stream_stall_deadline < 0:
            raise ConfigurationError("stream_stall_deadline must be >= 0")
