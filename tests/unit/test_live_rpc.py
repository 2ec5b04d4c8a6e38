"""RPC layer: multiplexing, timeouts, retries, typed remote errors."""

from __future__ import annotations

import asyncio
import socket

import numpy as np
import pytest

from repro.errors import (
    ChunkNotFoundError,
    RpcConnectionError,
    RpcRemoteError,
    RpcTimeoutError,
)
from repro.live.chunkserver import LiveChunkServer
from repro.live.config import LiveConfig
from repro.live.rpc import (
    Address,
    Connection,
    RpcClient,
    RpcClientPool,
    RpcServer,
)
from repro.live.wire import Frame, MessageType, encode_frame, write_frame

CONFIG = LiveConfig(
    connect_timeout=1.0,
    rpc_timeout=1.0,
    max_retries=1,
    backoff_base=0.01,
    backoff_max=0.05,
)


def run(coro):
    return asyncio.run(coro)


async def echo_server() -> RpcServer:
    server = RpcServer("echo", CONFIG)

    async def on_ping(frame: Frame):
        return {"echo": frame.payload, "server": "echo"}

    async def on_get(frame: Frame):
        size = int(frame.payload["size"])
        return {"ok": True}, {0: np.arange(size, dtype=np.uint8) % 251}

    async def on_put(frame: Frame):
        return None  # empty ack

    async def on_raw(frame: Frame):
        raise ChunkNotFoundError("no such chunk")

    async def on_hello(frame: Frame):
        return ["not", "a", "valid", "result"]  # type: ignore[return-value]

    async def slow(frame: Frame):
        await asyncio.sleep(30)

    server.register(MessageType.PING, on_ping)
    server.register(MessageType.GET_CHUNK, on_get)
    server.register(MessageType.PUT_CHUNK, on_put)
    server.register(MessageType.RAW_READ, on_raw)
    server.register(MessageType.HELLO, on_hello)
    server.register(MessageType.HEARTBEAT, slow)
    await server.start()
    return server


class TestRpcBasics:
    def test_call_roundtrip(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                response = await client.call(
                    MessageType.PING, {"value": 41}
                )
                return response.payload
            finally:
                await client.close()
                await server.close()

        payload = run(scenario())
        assert payload == {"echo": {"value": 41}, "server": "echo"}

    def test_buffers_come_back(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                response = await client.call(
                    MessageType.GET_CHUNK, {"size": 300}
                )
                return response.buffers[0]
            finally:
                await client.close()
                await server.close()

        buf = run(scenario())
        assert np.array_equal(buf, np.arange(300, dtype=np.uint8) % 251)

    def test_none_result_is_empty_ack(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                response = await client.call(MessageType.PUT_CHUNK, {})
                return response.payload, response.buffers
            finally:
                await client.close()
                await server.close()

        payload, buffers = run(scenario())
        assert payload == {} and buffers == {}

    def test_concurrent_calls_multiplex_one_connection(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                responses = await asyncio.gather(
                    *(
                        client.call(MessageType.PING, {"i": i})
                        for i in range(32)
                    )
                )
                return [r.payload["echo"]["i"] for r in responses]
            finally:
                await client.close()
                await server.close()

        assert run(scenario()) == list(range(32))


class TestRpcFailures:
    def test_remote_error_is_typed(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                with pytest.raises(RpcRemoteError) as excinfo:
                    await client.call(MessageType.RAW_READ, {})
                return excinfo.value
            finally:
                await client.close()
                await server.close()

        error = run(scenario())
        assert error.code == "ChunkNotFoundError"
        assert "no such chunk" in error.remote_message

    def test_bad_handler_return_is_remote_error(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                with pytest.raises(RpcRemoteError) as excinfo:
                    await client.call(MessageType.HELLO, {})
                return excinfo.value.code
            finally:
                await client.close()
                await server.close()

        assert run(scenario()) == "InternalError"

    def test_unknown_message_type(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                with pytest.raises(RpcRemoteError) as excinfo:
                    await client.call(MessageType.REPAIR_ABORT, {})
                return excinfo.value.code
            finally:
                await client.close()
                await server.close()

        assert run(scenario()) == "UnknownMessage"

    def test_timeout_is_typed_and_bounded(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            loop = asyncio.get_running_loop()
            start = loop.time()
            try:
                with pytest.raises(RpcTimeoutError):
                    await client.call(
                        MessageType.HEARTBEAT, {}, timeout=0.2
                    )
                return loop.time() - start
            finally:
                await client.close()
                await server.close()

        elapsed = run(scenario())
        assert elapsed < 2.0  # nowhere near the handler's 30s sleep

    def test_connect_refused_retries_then_raises(self):
        async def scenario():
            # Bind-then-close gives a port with nothing listening.
            probe = RpcServer("probe", CONFIG)
            address = await probe.start()
            await probe.close()
            client = RpcClient(address, CONFIG)
            try:
                with pytest.raises(RpcConnectionError):
                    await client.call(MessageType.PING, {}, retries=1)
            finally:
                await client.close()

        run(scenario())

    def test_server_death_fails_inflight_calls(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            try:
                pending = asyncio.create_task(
                    client.call(
                        MessageType.HEARTBEAT, {}, timeout=5.0, retries=0
                    )
                )
                await asyncio.sleep(0.05)  # let the call go out
                await server.close(abort=True)
                with pytest.raises(RpcConnectionError):
                    await pending
            finally:
                await client.close()

        run(scenario())

    def test_closed_client_refuses_calls(self):
        async def scenario():
            server = await echo_server()
            client = RpcClient(server.address, CONFIG)
            await client.close()
            try:
                with pytest.raises(RpcConnectionError):
                    await client.call(MessageType.PING, {})
            finally:
                await server.close()

        run(scenario())


class TestTransport:
    """The receive-into connection over real loopback sockets."""

    BIG = 32 * 1024 * 1024  # larger than any socket buffer

    @staticmethod
    async def echo_buffers(frame: Frame):
        return {"writable": all(b.flags.writeable for b in frame.buffers.values())}, dict(
            frame.buffers
        )

    def test_big_frame_roundtrips_while_ping_answers(self):
        async def scenario():
            server = await echo_server()
            server.register(MessageType.PUT_CHUNK, self.echo_buffers)
            client = RpcClient(server.address, CONFIG)
            payload = np.random.default_rng(7).integers(
                0, 256, size=self.BIG, dtype=np.uint8
            )
            try:
                big, ping = await asyncio.gather(
                    client.call(
                        MessageType.PUT_CHUNK, {}, {0: payload}, timeout=30.0
                    ),
                    client.call(MessageType.PING, {"n": 1}, timeout=30.0),
                )
                assert client._connection is not None  # one connection, kept
                return payload, big, ping
            finally:
                await client.close()
                await server.close()

        payload, big, ping = run(scenario())
        assert ping.payload["echo"] == {"n": 1}
        assert big.payload == {"writable": True}
        assert big.buffers[0].tobytes() == payload.tobytes()

    def test_drain_blocks_on_a_stalled_reader_and_resumes(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            listener = socket.create_server(("127.0.0.1", 0))
            listener.setblocking(False)
            lost = []
            _, connection = await loop.create_connection(
                lambda: Connection(
                    1 << 20, lambda c, f: None, lambda c, e: lost.append(e)
                ),
                *listener.getsockname(),
            )
            peer, _ = await loop.sock_accept(listener)  # accepts, never reads
            frame = Frame(
                MessageType.PUT_CHUNK, 1, {},
                {0: np.zeros(1 << 20, dtype=np.uint8)},
            )
            sent = 0
            try:
                while True:  # fill the socket, then the transport buffer
                    write_frame(connection, frame)
                    sent += 1
                    try:
                        await asyncio.wait_for(connection.drain(), 0.05)
                    except asyncio.TimeoutError:
                        break
                    assert sent < 256, "drain never blocked"
                blocked = asyncio.ensure_future(connection.drain())
                cancelled = asyncio.ensure_future(connection.drain())
                await asyncio.sleep(0.05)
                assert not blocked.done()
                cancelled.cancel()  # one waiter leaving must not wake or
                await asyncio.sleep(0)  # cancel the other
                assert not blocked.done()
                received = 0
                while not blocked.done():
                    received += len(await loop.sock_recv(peer, 1 << 20))
                await blocked  # resumed, no error
                assert received > 0 and not lost
            finally:
                connection.close(abort=True)
                peer.close()
                listener.close()

        run(scenario())

    def test_abort_mid_frame_fails_every_call_and_leaves_nothing(self):
        async def scenario():
            server = await echo_server()
            server.register(MessageType.PUT_CHUNK, self.echo_buffers)
            client = RpcClient(server.address, CONFIG)
            calls = [
                asyncio.ensure_future(
                    client.call(
                        MessageType.HEARTBEAT, {}, timeout=30.0, retries=0
                    )
                )
                for _ in range(3)
            ]
            calls.append(
                asyncio.ensure_future(
                    client.call(
                        MessageType.PUT_CHUNK,
                        {},
                        {0: np.zeros(self.BIG, dtype=np.uint8)},
                        timeout=30.0,
                        retries=0,
                    )
                )
            )

            def mid_frame():
                return any(
                    c._parser._body is not None for c in server._connections
                )

            for _ in range(2000):
                if mid_frame() and len(server._tasks) == 3:
                    break
                await asyncio.sleep(0.001)
            assert mid_frame(), "server never caught inside the big frame"
            await server.close(abort=True)
            results = await asyncio.gather(*calls, return_exceptions=True)
            assert all(isinstance(r, RpcConnectionError) for r in results), results
            assert not server._tasks and not server._connections
            assert not client._pending and client._connection is None
            await client.close()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        run(scenario())

    @pytest.mark.parametrize(
        "reply, reason",
        [
            (b"", "closed"),  # EOF at a frame boundary: a clean close
            (encode_frame(Frame(MessageType.PING, 1))[:-3], "inside a frame"),
            (b"XX" + bytes(32), "bad magic"),
        ],
    )
    def test_peer_close_and_garbage_fail_the_call_with_the_reason(self, reply, reason):
        async def scenario():
            loop = asyncio.get_running_loop()
            listener = socket.create_server(("127.0.0.1", 0))
            listener.setblocking(False)
            client = RpcClient(Address(*listener.getsockname()), CONFIG)
            call = asyncio.ensure_future(
                client.call(MessageType.PING, {}, timeout=5.0, retries=0)
            )
            peer, _ = await loop.sock_accept(listener)
            try:
                await loop.sock_recv(peer, 1 << 16)  # the request
                await loop.sock_sendall(peer, reply)
                peer.close()
                with pytest.raises(RpcConnectionError, match=reason):
                    await call
                assert not client._pending and client._connection is None
            finally:
                listener.close()
                await client.close()

        run(scenario())

    @pytest.mark.parametrize("size", [64, 1 << 16])  # scratch / own body
    def test_received_buffers_are_owned_writable_and_disjoint(self, size):
        sources = {
            0: np.full(size, 3, dtype=np.uint8),
            1: np.full(size, 5, dtype=np.uint8),
        }

        async def scenario():
            server = await echo_server()

            async def serve_sources(frame: Frame):
                return {}, sources

            server.register(MessageType.GET_CHUNK, serve_sources)
            client = RpcClient(server.address, CONFIG)
            try:
                return await client.call(MessageType.GET_CHUNK, {})
            finally:
                await client.close()
                await server.close()

        a, b = (run(scenario()).buffers[key] for key in (0, 1))
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        a ^= 0xFF
        assert (a == 0xFC).all() and (b == 5).all()
        assert (sources[0] == 3).all() and (sources[1] == 5).all()


class TestOneWay:
    """``RpcClient.send``: request id 0, handled inline, never answered."""

    def test_one_way_frames_run_inline_in_order_without_a_reply(self):
        async def scenario():
            server = await echo_server()
            seen = []

            async def record(frame: Frame):
                seen.append((frame.payload["i"], len(server._tasks)))

            server.register(MessageType.DROP_CHUNK, record)
            client = RpcClient(server.address, CONFIG)
            try:
                for i in range(20):
                    await client.send(MessageType.DROP_CHUNK, {"i": i})
                await client.call(MessageType.PING, {})  # after all 20
                return seen, dict(client._pending)
            finally:
                await client.close()
                await server.close()

        seen, pending = run(scenario())
        assert seen == [(i, 0) for i in range(20)]  # no dispatch task
        assert pending == {}

    def test_suspending_one_way_handler_fails_loudly(self):
        """A one-way handler that awaits would be overtaken by later
        frames; the server refuses to run it that way: the error is
        reported to the loop and the connection is dropped."""

        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx))
            server = await echo_server()

            async def suspends(frame: Frame):
                await asyncio.sleep(0)

            server.register(MessageType.DROP_CHUNK, suspends)
            client = RpcClient(server.address, CONFIG)
            try:
                await client.call(MessageType.PING, {})
                connection = client._connection
                await client.send(MessageType.DROP_CHUNK, {})
                for _ in range(200):
                    if client._connection is None:
                        break
                    await asyncio.sleep(0.005)
                dropped = client._connection is None and connection.is_closing()
                # a fresh connection serves requests again
                answered = await client.call(MessageType.PING, {"n": 2})
                return reported, dropped, answered.payload, server._tasks
            finally:
                await client.close()
                await server.close()

        reported, dropped, answered, tasks = run(scenario())
        assert dropped
        errors = [ctx.get("exception") for ctx in reported]
        assert any(
            isinstance(e, RuntimeError) and "suspended" in str(e) for e in errors
        ), reported
        assert answered["echo"] == {"n": 2}
        assert not tasks


class TestRpcClientPool:
    def test_pool_reuses_clients(self):
        pool = RpcClientPool(CONFIG)
        a = Address("127.0.0.1", 1234)
        assert pool.get(a) is pool.get(a)
        assert pool.get(Address("127.0.0.1", 1235)) is not pool.get(a)

    def test_address_wire_roundtrip(self):
        a = Address("127.0.0.1", 4600)
        assert Address.from_wire(a.to_wire()) == a
        assert str(a) == "127.0.0.1:4600"


class TestChunkServerKill:
    def test_killed_server_stops_answering_before_tasks_are_reaped(self):
        """``kill()`` is a crash: a PING sent once it has started fails —
        over the open connection and on a fresh dial — even while a
        background task is still slow to exit."""

        async def scenario():
            server = LiveChunkServer("cs-00", None, CONFIG)
            client = RpcClient(await server.start(), CONFIG)
            released = asyncio.Event()

            async def slow_to_exit() -> None:
                try:
                    await asyncio.Event().wait()
                except asyncio.CancelledError:
                    await released.wait()  # holds kill() in its reaping
                    raise

            server._spawn(slow_to_exit())
            await asyncio.sleep(0)
            try:
                await client.call(MessageType.PING, {}, retries=0)
                killing = asyncio.ensure_future(server.kill())
                await asyncio.sleep(0.05)
                assert not killing.done()  # still reaping the slow task
                with pytest.raises(RpcConnectionError):
                    await client.call(MessageType.PING, {}, retries=0)
                fresh = RpcClient(server.address, CONFIG)
                with pytest.raises(RpcConnectionError):
                    await fresh.call(MessageType.PING, {}, retries=0)
                await fresh.close()
            finally:
                released.set()
                await killing
                await client.close()

        run(scenario())
