"""Exception hierarchy for the PPR reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate on the specific failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class GaloisError(ReproError):
    """Invalid Galois-field operation (e.g. division by zero)."""


class SingularMatrixError(ReproError):
    """A matrix that had to be inverted turned out to be singular."""


class CodingError(ReproError):
    """Erasure encode/decode failure."""


class UnrecoverableError(CodingError):
    """Too many erasures: the surviving chunks cannot recover the data."""


class PlanError(ReproError):
    """A repair plan is malformed or cannot be built."""


class UnknownSchemeError(PlanError, ConfigurationError, ValueError):
    """A repair-scheme name has no row in :data:`repro.repair.plan.SCHEMES`
    (each entry point's own error type: plan, configuration or value)."""


class AggregationError(ReproError):
    """A partial contribution does not fit a node's aggregation: unknown
    sender, slice geometry off the slicing rule, or a row out of range."""


class SimulationError(ReproError):
    """Discrete-event simulation entered an invalid state."""


class StorageError(ReproError):
    """QFS-like storage layer failure (missing chunk, dead server, ...)."""


class ChunkNotFoundError(StorageError):
    """A requested chunk is not hosted (or no longer hosted) anywhere."""


class ServerUnavailableError(StorageError):
    """An operation was directed at a failed or unknown server."""


class SchedulingError(ReproError):
    """The m-PPR Repair-Manager could not schedule a reconstruction."""


class LiveError(ReproError):
    """Base class for the live (asyncio TCP) deployment mode."""


class RpcError(LiveError):
    """An RPC to a live peer failed."""


class RpcConnectionError(RpcError):
    """Could not connect to a peer, or the connection dropped mid-call."""


class RpcTimeoutError(RpcError):
    """A peer did not answer within the configured per-RPC timeout."""


class RpcRemoteError(RpcError):
    """The peer answered with an error frame.

    ``code`` carries the remote exception class name so callers can
    discriminate without parsing the message text.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.remote_message = message


class WireFormatError(RpcError):
    """A frame on the wire was malformed (bad magic, length, or body)."""


class LiveRepairError(LiveError):
    """A live repair failed after exhausting its retry/replan budget."""


class RepairAbortedError(LiveError):
    """A live repair task was cancelled by the coordinator."""


class StreamError(LiveError):
    """A wire stream (BEGIN/DATA/END sub-frame sequence) broke protocol:
    an unknown stream id, a sub-frame after END/ABORT, or a receiver that
    stopped consuming (bounded inbound queue stayed full)."""
