"""Asyncio RPC machinery: framed request/response over persistent TCP.

:class:`RpcClient` multiplexes concurrent calls over one connection using
the frame's request id, enforces a per-RPC timeout, and retries
connection-level failures with bounded exponential backoff (safe because
every live handler is idempotent — duplicate partials are deduplicated by
sender, chunk puts overwrite identically).  :class:`RpcServer` dispatches
each incoming request on its own task, so a long-running handler (the
repair destination waiting for its subtree) never blocks pings or
partial results arriving on the same connection.  A one-way frame
(request id 0, :meth:`RpcClient.send`) is handled inline instead, in
arrival order, and never answered.

Both ends sit on one :class:`Connection`, an ``asyncio.BufferedProtocol``:
no reader task, no stream buffer.  The event loop ``recv_into``s the view
its :class:`~repro.live.wire.FrameParser` names and each completed frame
goes to its owner from that callback.  A received frame owns its body:
its buffers are writable, disjoint views nothing else holds, so handlers
may aggregate into them in place.  Outbound, a frame's parts are written
back to back with no ``await`` (hence no write lock); ``drain()`` returns
at once unless the transport is over its high-water mark, then waits for
``resume_writing`` — the peer reading again — or the connection's death.

Streaming (wire protocol v4): :class:`StreamSender` drives one outbound
BEGIN / DATA* / END sequence — BEGIN and every DATA are one-way sends,
END a call, all on the connection BEGIN went out on, so BEGIN and all
DATA are handled before END's handler runs.  Backpressure is TCP's: a
receiver that stops reading leaves the sender waiting in ``drain()``.
:class:`StreamInbox` holds each inbound stream's state.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

import numpy as np

from repro import obs
from repro.obs import causal
from repro.errors import (
    RpcConnectionError,
    RpcError,
    RpcRemoteError,
    RpcTimeoutError,
    StreamError,
    WireFormatError,
)
from repro.live.config import LiveConfig
from repro.live.wire import (
    FLAG_ERROR,
    Frame,
    FrameParser,
    MessageType,
    error_frame,
    response_frame,
    write_frame,
)

#: A handler takes the request frame and returns ``(payload, buffers)``,
#: just a payload dict, or ``None`` (empty ack).  Raising a ReproError
#: produces a typed error frame; anything else becomes ``InternalError``.
#: For a one-way frame the result is dropped and the handler must not
#: suspend (:meth:`RpcServer._run_one_way`).
Handler = Callable[[Frame], Awaitable[object]]


@dataclass(frozen=True)
class Address:
    """A peer endpoint."""

    host: str
    port: int

    def to_wire(self) -> "Sequence[object]":
        return [self.host, self.port]

    @classmethod
    def from_wire(cls, data: "Sequence[object]") -> "Address":
        return cls(host=str(data[0]), port=int(data[1]))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class Connection(asyncio.BufferedProtocol):
    """One framed TCP connection, either end: received bytes land where
    the parser says, ``write``/``drain`` are what ``write_frame`` needs."""

    def __init__(
        self,
        max_frame_bytes: int,
        on_frame: "Callable[[Connection, Frame], None]",
        on_lost: "Callable[[Connection, Optional[Exception]], None]",
    ):
        self._parser = FrameParser(max_frame_bytes)
        self._on_frame = on_frame
        self._on_lost = on_lost
        self._transport: "Optional[asyncio.Transport]" = None
        self._error: "Optional[Exception]" = None
        #: Pending while the transport wants writers to hold off.
        self._resumed: "Optional[asyncio.Future[None]]" = None

    # -- asyncio callbacks ----------------------------------------------
    def connection_made(self, transport) -> None:  # a socket Transport
        self._transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._parser.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        try:
            for frame in self._parser.buffer_updated(nbytes):
                self._on_frame(self, frame)
        except WireFormatError as exc:
            self._error = exc
            self.close(abort=True)

    def eof_received(self) -> None:
        try:
            self._parser.eof()
        except WireFormatError as exc:
            self._error = exc

    def pause_writing(self) -> None:
        self._resumed = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None:  # never done before: waiters shield it
            resumed.set_result(None)

    def connection_lost(self, exc: "Optional[Exception]") -> None:
        self.resume_writing()
        self._on_lost(self, exc or self._error)

    # -- writer side ----------------------------------------------------
    def write(self, data: "bytes | memoryview") -> None:
        self._transport.write(data)  # type: ignore[union-attr]

    def is_closing(self) -> bool:
        return self._transport is None or self._transport.is_closing()

    async def drain(self) -> None:
        if self._resumed is not None:
            # Shielded: a cancelled waiter must not cancel everyone's future.
            await asyncio.shield(self._resumed)
        if self.is_closing():
            raise ConnectionResetError("connection lost")

    def close(self, abort: bool = False) -> None:
        if self._transport is not None:
            (self._transport.abort if abort else self._transport.close)()


class RpcClient:
    """One peer's client: lazy connect, multiplexed calls, bounded retry."""

    def __init__(self, address: Address, config: "Optional[LiveConfig]" = None):
        self.address = address
        self.config = config or LiveConfig()
        self._connection: "Optional[Connection]" = None
        self._pending: "Dict[int, asyncio.Future[Frame]]" = {}
        self._request_ids = itertools.count(1)
        self._connect_lock = asyncio.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def _ensure_connected(self) -> Connection:
        connection = self._connection
        if connection is not None and not connection.is_closing():
            return connection
        async with self._connect_lock:
            connection = self._connection
            if connection is not None and not connection.is_closing():
                return connection
            if self._closed:
                raise RpcConnectionError(f"client to {self.address} is closed")
            try:
                _, connection = await asyncio.wait_for(
                    asyncio.get_running_loop().create_connection(
                        lambda: Connection(
                            self.config.max_frame_bytes, self._on_frame, self._on_lost
                        ),
                        self.address.host,
                        self.address.port,
                    ),
                    timeout=self.config.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                raise RpcConnectionError(
                    f"cannot connect to {self.address}: {exc}"
                ) from exc
            self._connection = connection
            return connection

    def _on_frame(self, connection: Connection, frame: Frame) -> None:
        future = self._pending.pop(frame.request_id, None)
        if future is not None and not future.done():
            future.set_result(frame)

    def _on_lost(self, connection: Connection, exc: "Optional[Exception]") -> None:
        how = "closed" if exc is None else f"failed: {exc}"
        self._drop_connection(
            connection, RpcConnectionError(f"connection to {self.address} {how}")
        )

    def _drop_connection(
        self, connection: "Optional[Connection]", error: Exception
    ) -> None:
        """Close ``connection`` and fail every call pending on it — unless
        it was dropped before (a send failure and the transport's own
        loss report both land here, in either order)."""
        if connection is not self._connection:
            return
        self._connection = None
        if connection is not None:
            connection.close()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    async def call(
        self,
        mtype: MessageType,
        payload: "Optional[Dict[str, object]]" = None,
        buffers: "Optional[Dict[int, np.ndarray]]" = None,
        timeout: "Optional[float]" = None,
        retries: "Optional[int]" = None,
    ) -> Frame:
        """One RPC round trip; returns the (non-error) response frame.

        Raises :class:`RpcTimeoutError` when no response lands within
        ``timeout`` (no blind retry: the caller decides whether waiting
        longer or replanning is right), :class:`RpcConnectionError` after
        exhausting reconnect retries, :class:`RpcRemoteError` when the
        peer answered with an error frame.
        """
        budget = self.config.rpc_timeout if timeout is None else timeout
        attempts = (
            self.config.max_retries if retries is None else retries
        ) + 1
        last_error: "Optional[Exception]" = None
        for attempt in range(attempts):
            if attempt:
                obs.registry().counter(
                    "live.rpc.retries", mtype=mtype.name
                ).inc()
                await asyncio.sleep(
                    min(
                        self.config.backoff_base * (2 ** (attempt - 1)),
                        self.config.backoff_max,
                    )
                )
            try:
                tracer = obs.tracer()
                if tracer is None:
                    return await self._call_once(
                        mtype, payload, buffers, budget
                    )
                return await self._traced_call(
                    tracer, mtype, payload, buffers, budget, attempt
                )
            except RpcConnectionError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    async def _traced_call(
        self,
        tracer: "obs.Tracer",
        mtype: MessageType,
        payload: "Optional[Dict[str, object]]",
        buffers: "Optional[Dict[int, np.ndarray]]",
        timeout: float,
        attempt: int,
    ) -> Frame:
        """One :meth:`_call_once`, wrapped in an obs span.

        The span carries bytes-on-wire in both directions (bulk buffer
        payloads only — framing overhead is a constant few hundred bytes)
        and which retry attempt this was; a span with no ``nbytes_in``
        is a call that failed or timed out.
        """
        nbytes_out = sum(
            int(buf.nbytes) for buf in (buffers or {}).values()
        )
        ctx = causal.current()
        with tracer.span(
            f"live.rpc.{mtype.name.lower()}",
            node=str(self.address),
            category="live.rpc",
            nbytes_out=nbytes_out,
            attempt=attempt,
            **({"trace_id": ctx.trace_id} if ctx is not None else {}),
        ) as span:
            response = await self._call_once(mtype, payload, buffers, timeout)
            span.attrs["nbytes_in"] = sum(
                int(buf.nbytes) for buf in response.buffers.values()
            )
        registry = obs.registry()
        registry.counter("live.rpc.calls", mtype=mtype.name).inc()
        registry.counter("live.rpc.bytes_out").inc(nbytes_out)
        registry.counter("live.rpc.bytes_in").inc(span.attrs["nbytes_in"])
        return response

    async def _call_once(
        self,
        mtype: MessageType,
        payload: "Optional[Dict[str, object]]",
        buffers: "Optional[Dict[int, np.ndarray]]",
        timeout: float,
    ) -> Frame:
        connection = await self._ensure_connected()
        request_id = next(self._request_ids)
        frame = Frame(
            mtype=mtype,
            request_id=request_id,
            payload=payload or {},
            buffers=buffers or {},
            # Propagate the ambient causal context (if a traced repair is
            # in flight) as the optional __trace__ header field.
            trace=causal.current_wire(),
        )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Frame]" = loop.create_future()
        self._pending[request_id] = future
        try:
            write_frame(connection, frame)
            await connection.drain()
        except (ConnectionError, OSError) as exc:
            # Fails ``future`` too (now, or already when the loss was
            # reported first), so the await below raises for this call.
            self._drop_connection(
                connection,
                RpcConnectionError(f"send to {self.address} failed: {exc}"),
            )
        deadline = loop.call_later(timeout, self._expire, future, mtype, timeout)
        try:
            response = await future
        finally:
            deadline.cancel()
            self._pending.pop(request_id, None)
        if response.is_error:
            code, message = response.error_info()
            raise RpcRemoteError(code, message)
        return response

    def _expire(
        self, future: asyncio.Future, mtype: MessageType, timeout: float
    ) -> None:
        if not future.done():
            message = f"{mtype.name} to {self.address} timed out after {timeout}s"
            future.set_exception(RpcTimeoutError(message))

    async def send(
        self,
        mtype: MessageType,
        payload: "Optional[Dict[str, object]]" = None,
        buffers: "Optional[Dict[int, np.ndarray]]" = None,
    ) -> None:
        """One one-way frame (request id 0): no future, no deadline, no
        retry.  Returns once the transport took it, after waiting in
        ``drain()`` while the peer is not reading; says nothing of
        delivery.  Raises :class:`RpcConnectionError` on failure."""
        connection = await self._ensure_connected()
        frame = Frame(
            mtype, 0, payload or {}, buffers or {}, trace=causal.current_wire()
        )
        try:
            write_frame(connection, frame)
            await connection.drain()
        except (ConnectionError, OSError) as exc:
            error = RpcConnectionError(f"send to {self.address} failed: {exc}")
            self._drop_connection(connection, error)
            raise error from exc

    async def close(self) -> None:
        """Tear the connection down; in-flight calls fail cleanly."""
        self._closed = True
        self._drop_connection(
            self._connection,
            RpcConnectionError(f"client to {self.address} closed"),
        )


class RpcClientPool:
    """Shared per-address clients, so peers reuse one connection."""

    def __init__(self, config: "Optional[LiveConfig]" = None):
        self.config = config or LiveConfig()
        self._clients: "Dict[Address, RpcClient]" = {}

    def get(self, address: Address) -> RpcClient:
        client = self._clients.get(address)
        if client is None:
            client = RpcClient(address, self.config)
            self._clients[address] = client
        return client

    def drop(self, address: Address) -> None:
        self._clients.pop(address, None)

    async def close(self) -> None:
        clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            await client.close()


class RpcServer:
    """A framed-TCP service: per-type handlers, per-request dispatch tasks."""

    def __init__(self, name: str, config: "Optional[LiveConfig]" = None):
        self.name = name
        self.config = config or LiveConfig()
        self._handlers: "Dict[MessageType, Handler]" = {}
        self._server: "Optional[asyncio.base_events.Server]" = None
        self._connections: "Set[Connection]" = set()
        self._tasks: "Set[asyncio.Task[None]]" = set()
        self.address: "Optional[Address]" = None
        #: Optional :class:`repro.obs.flight.FlightRecorder` tap: when
        #: set, every dispatched frame leaves an ``rpc`` event in the
        #: ring (type, request id, error flag) for incident bundles.
        self.flight: "Optional[object]" = None

    def register(self, mtype: MessageType, handler: Handler) -> None:
        self._handlers[mtype] = handler

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: "Optional[str]" = None, port: int = 0) -> Address:
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, host or self.config.host, port
        )
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        self.address = Address(host=bound_host, port=int(bound_port))
        return self.address

    async def close(self, abort: bool = False) -> None:
        """Stop serving.  ``abort=True`` resets connections (crash-style),
        which is how tests simulate a server dying mid-repair."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for task in list(self._tasks):
            task.cancel()
        for connection in list(self._connections):
            connection.close(abort)
        self._connections.clear()
        # Reaping the handlers here keeps the event loop free of orphans.
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        if server is not None:
            await server.wait_closed()

    @property
    def serving(self) -> bool:
        return self._server is not None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _accept(self) -> Connection:
        connection = Connection(
            self.config.max_frame_bytes, self._on_frame, self._on_lost
        )
        self._connections.add(connection)
        return connection

    def _on_frame(self, connection: Connection, frame: Frame) -> None:
        if frame.request_id == 0:
            self._run_one_way(frame)
            return
        task = asyncio.create_task(self._dispatch(frame, connection))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _run_one_way(self, frame: Frame) -> None:
        """Step a one-way frame's handler once, here: no task, no
        response, frames handled in arrival order.  A handler that
        suspends, raises or is missing is a bug no response can report,
        so its exception leaves the connection callback, where asyncio
        logs it and drops the connection."""
        handler = self._handlers[frame.mtype]
        with causal.bound(causal.SpanContext.from_wire(frame.trace)):
            coro = handler(frame)
            try:
                coro.send(None)  # type: ignore[attr-defined]
            except StopIteration:
                return
        coro.close()  # type: ignore[attr-defined]
        raise RuntimeError(f"one-way {frame.mtype.name} handler suspended")

    def _on_lost(self, connection: Connection, exc: "Optional[Exception]") -> None:
        self._connections.discard(connection)

    async def _dispatch(self, frame: Frame, connection: Connection) -> None:
        handler = self._handlers.get(frame.mtype)
        try:
            if handler is None:
                raise RpcRemoteError(
                    "UnknownMessage", f"{self.name} cannot handle {frame.mtype!r}"
                )
            # Rebind the caller's causal context around the handler so any
            # span it records — and any task or downstream RPC it spawns
            # (asyncio copies contextvars into created tasks) — stays in
            # the originating repair's trace.
            ctx = causal.SpanContext.from_wire(frame.trace)
            if ctx is None:
                result = await handler(frame)
            else:
                token = causal.activate(ctx)
                try:
                    result = await handler(frame)
                finally:
                    causal.restore(token)
        except asyncio.CancelledError:
            return
        except Exception as exc:  # noqa: BLE001 - every failure goes on the wire
            response = error_frame(frame, exc)
        else:
            if result is None:
                response = response_frame(frame)
            elif isinstance(result, tuple):
                payload, buffers = result
                response = response_frame(frame, payload, buffers)
            elif isinstance(result, dict):
                response = response_frame(frame, result)
            else:
                response = error_frame(
                    frame,
                    TypeError(f"handler returned {type(result).__name__}"),
                )
        flight = self.flight
        if flight is not None:
            try:
                flight.record(
                    "rpc",
                    frame.mtype.name,
                    request_id=frame.request_id,
                    error=bool(response.flags & FLAG_ERROR),
                )
            except Exception:
                pass  # the recorder must never break dispatch
        if connection.is_closing():
            return
        try:
            write_frame(connection, response)
            await connection.drain()
        except (ConnectionError, OSError):
            pass  # peer is gone; it will retry or time out


# ----------------------------------------------------------------------
# Streaming (wire v4): one-way BEGIN and DATA on a pinned connection
# ----------------------------------------------------------------------
class StreamSender:
    """Sender half of one wire stream over an :class:`RpcClient`.

    Lifecycle is strict — ``begin()``, any number of ``data()`` calls,
    then ``end()`` (docs/PROTOCOL.md, stream state machine).  DATA and END
    must use the connection BEGIN went out on: once the client's
    connection is another one, a segment may have died with the old one,
    so the stream is poisoned — that error, like a failed send, raises on
    this and every later call.
    """

    def __init__(
        self,
        client: RpcClient,
        stream_id: str,
        config: "Optional[LiveConfig]" = None,
    ):
        self.client = client
        self.stream_id = stream_id
        self.config = config or client.config
        self.bytes_sent = 0
        self._connection: "Optional[Connection]" = None  # pinned at BEGIN
        self._error: "Optional[Exception]" = None
        self._begun = False
        self._closed = False

    def _check_open(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise StreamError(f"stream {self.stream_id} already closed")

    def _check_pinned(self) -> None:
        if not self._begun:
            raise StreamError(f"stream {self.stream_id} has no BEGIN")
        pinned = self._connection
        if pinned is None or pinned.is_closing() or self.client._connection is not pinned:
            self._error = StreamError(
                f"stream {self.stream_id}: connection to {self.client.address} "
                f"lost since BEGIN"
            )
            raise self._error

    async def begin(self, payload: "Dict[str, object]") -> None:
        """Open the stream with a one-way BEGIN and pin its connection.
        Nothing answers it: a receiver that cannot open the stream says
        so in the END ack."""
        self._check_open()
        if self._begun:
            raise StreamError(f"stream {self.stream_id} already begun")
        self._begun = True
        try:
            await self.client.send(
                MessageType.STREAM_BEGIN,
                {**payload, "stream_id": self.stream_id},
            )
        except RpcError as exc:
            self._error = exc
            raise
        self._connection = self.client._connection

    async def data(
        self,
        payload: "Dict[str, object]",
        buffers: "Dict[int, np.ndarray]",
    ) -> None:
        """Send one segment as a one-way frame on the pinned connection."""
        self._check_open()
        self._check_pinned()
        try:
            await self.client.send(
                MessageType.STREAM_DATA,
                {**payload, "stream_id": self.stream_id},
                buffers,
            )
        except RpcError as exc:
            self._error = exc
            raise
        self.bytes_sent += sum(int(b.nbytes) for b in buffers.values())

    async def end(self, payload: "Dict[str, object]") -> Frame:
        """Close the stream with END; its ack means every segment is in."""
        self._check_open()
        self._check_pinned()
        self._closed = True
        return await self.client.call(
            MessageType.STREAM_END,
            {**payload, "stream_id": self.stream_id},
            timeout=self.config.rpc_timeout,
        )

    async def abort(self, reason: str) -> None:
        """Best-effort ABORT so the receiver can free stream state now;
        a stream that never began has nothing to free."""
        if self._closed:
            return
        self._closed = True
        if not self._begun:
            return
        try:
            await self.client.call(
                MessageType.STREAM_ABORT,
                {"stream_id": self.stream_id, "reason": reason},
                timeout=self.config.connect_timeout,
                retries=0,
            )
        except RpcError:
            pass  # the receiver's wait timeout cleans up on its own


#: Queue sentinel marking the end of an inbound stream.
_STREAM_DONE = object()


class InboundStream:
    """Receiver state for one stream: metadata plus a frame queue.

    The chunk server merges each DATA frame in its one-way handler and
    uses only the metadata.  A receiver that wants the frames in a task
    instead has the handler :meth:`deliver` them and pulls them with
    :meth:`next_frame` until it returns ``None`` (after :meth:`finish`) —
    or raises :class:`~repro.errors.RepairAbortedError` after :meth:`abort`.
    """

    def __init__(self, stream_id: str, begin_payload: "Dict[str, object]"):
        self.stream_id = stream_id
        self.begin = dict(begin_payload)
        self.repair_id = str(begin_payload.get("repair_id", ""))
        self.sender = str(begin_payload.get("sender", ""))
        self.opened_at: "Optional[float]" = None
        #: Wall timestamp of the last DATA frame (or None until the first
        #: one) — the stalled-stream watchdog's progress signal.
        self.last_progress: "Optional[float]" = None
        self.bytes_received = 0
        self.aborted: "Optional[str]" = None
        #: For a queue consumer to set once it has drained the stream.
        self.consumed: asyncio.Event = asyncio.Event()
        #: The first receive-side failure; the END ack raises it.
        self.error: "Optional[Exception]" = None
        self._queue: "asyncio.Queue[object]" = asyncio.Queue()
        self._finished = False

    async def deliver(self, frame: Frame, timeout: float) -> None:
        """Queue one DATA frame.  Never suspends, so a one-way handler may
        await it; ``timeout`` is unused (TCP, not this queue, holds a fast
        sender back)."""
        if self.aborted is not None or self._finished:
            raise StreamError(
                f"stream {self.stream_id} is closed to new frames"
            )
        self._queue.put_nowait(frame)

    def finish(self) -> None:
        """Mark the end of the stream (END frame observed)."""
        self._finished = True
        self._queue.put_nowait(_STREAM_DONE)

    def abort(self, reason: str) -> None:
        self.aborted = reason
        self._queue.put_nowait(_STREAM_DONE)

    async def next_frame(self) -> "Optional[Frame]":
        """The next DATA frame, or ``None`` once the stream ended."""
        item = await self._queue.get()
        if item is _STREAM_DONE:
            if self.aborted is not None:
                from repro.errors import RepairAbortedError

                raise RepairAbortedError(
                    f"stream {self.stream_id} aborted: {self.aborted}"
                )
            return None
        assert isinstance(item, Frame)
        return item


class StreamInbox:
    """All inbound streams of one server, keyed by stream id."""

    def __init__(self, config: "Optional[LiveConfig]" = None):
        self.config = config or LiveConfig()
        self._streams: "Dict[str, InboundStream]" = {}

    def open(
        self, stream_id: str, begin_payload: "Dict[str, object]"
    ) -> InboundStream:
        """Register a stream; duplicate BEGINs return the existing one
        (RPC retries must be idempotent)."""
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = InboundStream(stream_id, begin_payload)
            self._streams[stream_id] = stream
        return stream

    def get(self, stream_id: str) -> InboundStream:
        stream = self._streams.get(stream_id)
        if stream is None:
            raise StreamError(f"unknown stream {stream_id}")
        return stream

    def discard(self, stream_id: str) -> None:
        self._streams.pop(stream_id, None)

    def streams(self) -> "List[InboundStream]":
        """Every open inbound stream (the watchdog's progress view)."""
        return list(self._streams.values())

    def abort_repair(self, repair_id: str, reason: str) -> "List[str]":
        """Abort every stream belonging to ``repair_id``; returns ids."""
        hit = [
            sid
            for sid, stream in self._streams.items()
            if stream.repair_id == repair_id
        ]
        for sid in hit:
            stream = self._streams.pop(sid)
            stream.abort(reason)
        return hit

    def close(self, reason: str) -> None:
        streams, self._streams = list(self._streams.values()), {}
        for stream in streams:
            stream.abort(reason)

    def __len__(self) -> int:
        return len(self._streams)
