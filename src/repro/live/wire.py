"""Length-prefixed framed wire format of the live deployment (v4).

One frame is::

    offset  size  field
    0       2     magic ``b"PP"``
    2       1     protocol version (4; nothing older is accepted)
    3       1     message type (:class:`MessageType`)
    4       1     flags (bit 0 = response, bit 1 = error)
    5       4     request id (big-endian; response echoes the request's;
                  0 = one-way, never answered)
    9       4     body length in bytes (big-endian)
    13      ...   body

and the body is::

    0       4     JSON header length ``H``
    4       H     UTF-8 JSON header
    4+H     ...   concatenated binary buffers

The JSON header carries the message payload (wire forms of the
``repro.fs.messages`` dataclasses ride here) plus a ``__buffers__`` index
``[[key, length], ...]`` describing how to cut the binary tail back into
the ``row -> buffer`` maps PPR ships around.  Bulk bytes therefore never
pass through JSON; a partial result's GF-combined rows go on the socket
as raw buffers.

A second reserved header key, ``__trace__``, optionally carries the causal
trace context (``{"trace_id": ..., "span_id": ...}``, see
:mod:`repro.obs.causal`) of the caller.  It is stripped from the payload on
decode and attached to requests only when a repair is being traced.

The *stream plane* moves every PPR hop as a ``STREAM_BEGIN`` /
``STREAM_DATA``* / ``STREAM_END`` sub-frame sequence (``STREAM_ABORT`` for
early teardown), so one logical transfer pipelines across hops without
any single frame holding the whole chunk; an unsliced hop is the
one-slice stream.  BEGIN and DATA are one-way frames (request id 0) that
TCP alone flow-controls; END and ABORT are acknowledged calls.  The
layout is the v2/v3 layout, but a v3 sender would wait forever for a
BEGIN ack and v3 peers still send whole-row results outside any stream,
so readers accept version 4 only.  The normative spec is
``docs/PROTOCOL.md``.

Senders should prefer :func:`write_frame` (or :func:`frame_parts`) over
:func:`encode_frame`: each buffer's ``memoryview`` goes to the transport
as its own write, so this module copies no payload byte on the way out.
A part the socket will not take at once is asyncio's business: CPython
<= 3.11 appends the unsent tail to a ``bytearray`` (one copy of that
tail), 3.12 keeps the view and ``sendmsg``s it later.  Receivers feed the
socket through one sans-I/O :class:`FrameParser`; a body that outgrows
its small scratch is received in place and :func:`decode_body` cuts
``np.frombuffer`` views out of it, so nothing is copied on the way in.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError, WireFormatError
from repro.repair.aggregate import slice_bounds as slice_bounds  # the slicing rule

MAGIC = b"PP"
#: Version stamped on every emitted frame.
VERSION = 4
#: Versions :class:`FrameParser` accepts.  Older peers expect acks for
#: STREAM_BEGIN (v3) or STREAM_DATA (v1/v2), so they are refused at the
#: first header rather than left to hang.
SUPPORTED_VERSIONS = (4,)

#: Frame header: magic, version, type, flags, request id, body length.
HEADER = struct.Struct("!2sBBBII")

FLAG_RESPONSE = 0x01
FLAG_ERROR = 0x02


class MessageType(enum.IntEnum):
    """Every message the live protocol speaks."""

    # Liveness + membership
    PING = 1
    HELLO = 2
    HEARTBEAT = 3
    # Chunk data plane
    PUT_CHUNK = 10
    GET_CHUNK = 11
    DROP_CHUNK = 12
    # Metadata plane
    REGISTER_STRIPE = 20
    LOCATE_STRIPE = 21
    CHUNK_ADDED = 22
    LIST_SERVERS = 23
    # Repair plane
    PARTIAL_OP = 30
    RAW_READ = 32
    START_RAW_REPAIR = 33
    REPAIR_ABORT = 34
    #: Coordinator -> PPR destination: answered with the rebuilt chunk
    #: once it is committed.
    REPAIR_RESULT = 35
    # Telemetry plane
    STATS = 40
    HEALTH = 41
    DOCTOR = 42
    #: Node -> collector push: batched series deltas + histogram
    #: snapshots, shipped on the heartbeat cadence.
    TELEMETRY = 43
    #: Cockpit pull: one RPC answering query/fleet/top/prom/stats
    #: against the collector's tiered retention.
    COLLECTOR_QUERY = 44
    # Stream plane: every PPR hop as BEGIN / DATA* / END (BEGIN and
    # DATA are one-way)
    STREAM_BEGIN = 50
    STREAM_DATA = 51
    STREAM_END = 52
    STREAM_ABORT = 53


@dataclass
class Frame:
    """One decoded protocol frame."""

    mtype: MessageType
    request_id: int
    payload: "Dict[str, object]" = field(default_factory=dict)
    buffers: "Dict[int, np.ndarray]" = field(default_factory=dict)
    flags: int = 0
    #: Causal trace context (``__trace__`` header key): the caller's
    #: ``{"trace_id", "span_id"}``, or None when the call is untraced.
    trace: "Optional[Dict[str, object]]" = None

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    @property
    def is_error(self) -> bool:
        return bool(self.flags & FLAG_ERROR)

    def error_info(self) -> "Tuple[str, str]":
        """(code, message) of an error frame."""
        return (
            str(self.payload.get("error", "ReproError")),
            str(self.payload.get("message", "")),
        )


def frame_parts(frame: Frame) -> "List[Union[bytes, memoryview]]":
    """Serialize a frame as a list of write-ready parts.

    The first part is the fixed header plus JSON header; each buffer
    follows as a ``memoryview`` over its array — a stream segment that is
    a slice view of the sender's partial rows reaches the transport
    without being copied here.  Non-contiguous or non-uint8 buffers fall
    back to a contiguous copy, which is the only way to put them on a wire.
    """
    header = dict(frame.payload)
    index = []
    views: "List[Union[bytes, memoryview]]" = []
    for key in sorted(frame.buffers):
        buf = np.ascontiguousarray(frame.buffers[key], dtype=np.uint8)
        index.append([int(key), int(buf.size)])
        views.append(buf.data)
    if index:
        header["__buffers__"] = index
    if frame.trace is not None:
        header["__trace__"] = frame.trace
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body_len = 4 + len(header_bytes) + sum(len(v) for v in views)
    head = (
        HEADER.pack(
            MAGIC,
            VERSION,
            int(frame.mtype),
            frame.flags,
            frame.request_id,
            body_len,
        )
        + struct.pack("!I", len(header_bytes))
        + header_bytes
    )
    return [head, *views]


def write_frame(writer, frame: Frame) -> None:
    """Write a frame to ``writer`` (anything with a transport's ``write``)
    part by part, with no ``join`` and no ``await`` in between — frames of
    concurrent tasks never interleave, so no write lock is needed.
    Callers still ``await writer.drain()`` themselves; batching several
    frames before one drain is valid.
    """
    for part in frame_parts(frame):
        writer.write(part)


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to one contiguous ``bytes`` (copies buffers)."""
    return b"".join(bytes(part) for part in frame_parts(frame))


def decode_body(mtype: int, flags: int, request_id: int, body: bytes) -> Frame:
    """Rebuild a frame from its body bytes (header already parsed).

    The buffers are disjoint ``np.frombuffer`` views over ``body`` — no
    copy, writable exactly when ``body`` is (:class:`FrameParser` passes a
    ``bytearray``) — so the caller must not reuse ``body`` afterwards.
    """
    if len(body) < 4:
        raise WireFormatError("frame body shorter than its JSON length word")
    (json_len,) = struct.unpack_from("!I", body, 0)
    if 4 + json_len > len(body):
        raise WireFormatError(
            f"JSON header length {json_len} exceeds body of {len(body)} bytes"
        )
    try:
        header = json.loads(body[4 : 4 + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"bad JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireFormatError("JSON header must be an object")
    index = header.pop("__buffers__", [])
    if not isinstance(index, list):
        raise WireFormatError("buffer index must be a list")
    buffers: "Dict[int, np.ndarray]" = {}
    offset = 4 + json_len
    for entry in index:
        try:
            key, length = entry
            key, length = int(key), int(length)
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"bad buffer index entry {entry!r}") from exc
        if length < 0 or offset + length > len(body):
            raise WireFormatError("buffer index overruns frame body")
        buffers[key] = np.frombuffer(
            body, dtype=np.uint8, count=length, offset=offset
        )
        offset += length
    if offset != len(body):
        raise WireFormatError(
            f"{len(body) - offset} trailing bytes after declared buffers"
        )
    try:
        mtype_enum = MessageType(mtype)
    except ValueError as exc:
        raise WireFormatError(f"unknown message type {mtype}") from exc
    trace = header.pop("__trace__", None)
    if not isinstance(trace, dict):
        trace = None
    return Frame(
        mtype=mtype_enum,
        request_id=request_id,
        payload=header,
        buffers=buffers,
        flags=flags,
        trace=trace,
    )


class FrameParser:
    """Sans-I/O incremental frame decoder of one connection.

    Shaped for ``asyncio.BufferedProtocol``: :meth:`get_buffer` is the
    (never empty) view the next received bytes must land in,
    :meth:`buffer_updated` returns the frames they completed.  Headers and
    small frames land in a fixed scratch; a body still incomplete when its
    header is parsed gets its ``bytearray`` — after the ``max_frame_bytes``
    check, never before — and the view handed out is its unfilled tail.
    A finished body belongs to its frame; the parser never touches it again.
    """

    SCRATCH_BYTES = 8192

    def __init__(self, max_frame_bytes: int):
        self.max_frame_bytes = max_frame_bytes
        self._scratch = memoryview(bytearray(self.SCRATCH_BYTES))
        self._filled = 0  # scratch bytes not parsed yet (< HEADER.size at rest)
        self._head: "Tuple[int, int, int]" = (0, 0, 0)
        self._body: "Optional[bytearray]" = None
        self._body_filled = 0

    def get_buffer(self) -> memoryview:
        if self._body is not None:
            return memoryview(self._body)[self._body_filled :]
        return self._scratch[self._filled :]

    def buffer_updated(self, nbytes: int) -> "List[Frame]":
        """Account for ``nbytes`` written into the last :meth:`get_buffer`.
        Raises :class:`WireFormatError` on garbage; the parser is dead
        after that and the connection must be dropped."""
        if self._body is not None:
            self._body_filled += nbytes
            if self._body_filled < len(self._body):
                return []
            body, self._body = self._body, None
            return [decode_body(*self._head, body)]
        frames: "List[Frame]" = []
        scratch, pos, end = self._scratch, 0, self._filled + nbytes
        while end - pos >= HEADER.size:
            magic, version, mtype, flags, request_id, body_len = (
                HEADER.unpack_from(scratch, pos)
            )
            if magic != MAGIC:
                raise WireFormatError(f"bad magic {magic!r}")
            if version not in SUPPORTED_VERSIONS:
                raise WireFormatError(f"unsupported protocol version {version}")
            if body_len > self.max_frame_bytes:
                raise WireFormatError(
                    f"frame of {body_len} bytes exceeds cap {self.max_frame_bytes}"
                )
            pos += HEADER.size
            if end - pos < body_len:
                # Incomplete: the rest is received straight into the body.
                self._head = (mtype, flags, request_id)
                self._body = bytearray(body_len)
                self._body[: end - pos] = scratch[pos:end]
                self._body_filled = end - pos
                pos = end
                break
            body = bytearray(scratch[pos : pos + body_len])
            frames.append(decode_body(mtype, flags, request_id, body))
            pos += body_len
        scratch[: end - pos] = scratch[pos:end]
        self._filled = end - pos
        return frames

    def eof(self) -> None:
        """The peer closed: fine at a frame boundary, an error inside one."""
        if self._body is not None or self._filled:
            raise WireFormatError("connection closed inside a frame")


def response_frame(
    request: Frame,
    payload: "Optional[Dict[str, object]]" = None,
    buffers: "Optional[Dict[int, np.ndarray]]" = None,
) -> Frame:
    """A success response echoing the request's id and type."""
    return Frame(
        mtype=request.mtype,
        request_id=request.request_id,
        payload=payload or {},
        buffers=buffers or {},
        flags=FLAG_RESPONSE,
    )


def error_frame(request: Frame, exc: BaseException) -> Frame:
    """An error response; remote errors carry their class name as code."""
    from repro.errors import RpcRemoteError

    if isinstance(exc, RpcRemoteError):
        # Forwarding an already-remote error: keep its original code.
        code, message = exc.code, exc.remote_message
    elif isinstance(exc, ReproError):
        code, message = type(exc).__name__, str(exc)
    else:
        code, message = "InternalError", str(exc)
    return Frame(
        mtype=request.mtype,
        request_id=request.request_id,
        payload={"error": code, "message": message},
        flags=FLAG_RESPONSE | FLAG_ERROR,
    )
