"""Wire v4 stream plane: framing, one-way BEGIN/DATA, pinned sender, slices.

Covers the protocol-level edge cases the spec (docs/PROTOCOL.md) calls
out: golden-bytes pinning of the v4 encoding, version acceptance,
out-of-order and duplicate slice segments, truncated streams (peer death
mid-transfer), a connection change mid-stream, abort semantics, TCP
backpressure, and in-place aggregation.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.codes.recipe import RepairRecipe
from repro.errors import (
    AggregationError,
    RepairAbortedError,
    RpcError,
    StreamError,
    WireFormatError,
)
from repro.fs.messages import PartialOpRequest
from repro.live.chunkserver import _PartialTask
from repro.live.config import LiveConfig
from repro.live.rpc import (
    RpcClient,
    RpcServer,
    StreamInbox,
    StreamSender,
)
from repro.repair.aggregate import LOCAL
from repro.live.wire import (
    HEADER,
    SUPPORTED_VERSIONS,
    VERSION,
    Frame,
    FrameParser,
    MessageType,
    encode_frame,
    frame_parts,
    slice_bounds,
)
from tests.unit.test_live_wire import feed

CONFIG = LiveConfig(
    connect_timeout=1.0,
    rpc_timeout=1.0,
    partial_wait_timeout=1.0,
    max_retries=0,
    backoff_base=0.01,
    backoff_max=0.05,
)


def run(coro):
    return asyncio.run(coro)


def parse_one(raw: bytes) -> Frame:
    """The single frame a receiver makes of ``raw`` followed by EOF."""
    parser = FrameParser(CONFIG.max_frame_bytes)
    (frame,) = feed(parser, raw)
    parser.eof()
    return frame


# ----------------------------------------------------------------------
# Encoding: golden bytes, version negotiation, zero-copy parts
# ----------------------------------------------------------------------
class TestWireV2Encoding:
    #: Hand-checkable v4 STREAM_DATA frame: magic "PP", version 4,
    #: mtype 51, flags 0, request_id 0 (one-way), then 4-byte JSON
    #: length, the header JSON (payload keys in insertion order,
    #: ``__buffers__`` appended last) and the raw segment bytes 00 01 02 03.
    GOLDEN_HEX = (
        "50500433000000000000000052000000"
        "4a7b2273747265616d5f6964223a2272312f63732d3030222c22736c696365"
        "5f696e646578223a332c226f6666736574223a31362c225f5f627566666572"
        "735f5f223a5b5b322c345d5d7d00010203"
    )

    def golden_frame(self) -> Frame:
        return Frame(
            mtype=MessageType.STREAM_DATA,
            request_id=0,
            payload={
                "stream_id": "r1/cs-00",
                "slice_index": 3,
                "offset": 16,
            },
            buffers={2: np.arange(4, dtype=np.uint8)},
        )

    def test_golden_bytes(self):
        """The v4 encoding is pinned byte-for-byte.

        If this fails you changed the wire format: bump VERSION and
        update docs/PROTOCOL.md (including its worked hexdump).
        """
        assert encode_frame(self.golden_frame()).hex() == self.GOLDEN_HEX

    def test_golden_bytes_decode(self):
        frame = parse_one(bytes.fromhex(self.GOLDEN_HEX))
        assert frame.mtype is MessageType.STREAM_DATA
        assert frame.request_id == 0
        assert frame.payload["slice_index"] == 3
        assert frame.payload["offset"] == 16
        assert np.array_equal(
            frame.buffers[2], np.arange(4, dtype=np.uint8)
        )

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_reader_accepts_supported_versions(self, version):
        raw = bytearray(encode_frame(self.golden_frame()))
        raw[2] = version
        frame = parse_one(bytes(raw))
        assert frame.payload["stream_id"] == "r1/cs-00"

    #: 1-3 are retired: their senders wait for DATA (v1/v2) or BEGIN (v3)
    #: acks v4 never sends, so they are refused at the header instead of
    #: left to hang.
    @pytest.mark.parametrize("version", [0, 1, 2, 3, 9, 255])
    def test_reader_rejects_unknown_versions(self, version):
        raw = bytearray(encode_frame(self.golden_frame()))
        raw[2] = version
        with pytest.raises(WireFormatError, match="version"):
            parse_one(bytes(raw))

    def test_writer_emits_version_4(self):
        raw = encode_frame(self.golden_frame())
        _, version, _, _, _, _ = HEADER.unpack(raw[: HEADER.size])
        assert version == VERSION == 4
        assert SUPPORTED_VERSIONS == (4,)

    def test_frame_parts_are_zero_copy(self):
        """Buffer parts alias the source arrays — no serialization copy."""
        payload = np.arange(64, dtype=np.uint8)
        frame = Frame(
            mtype=MessageType.STREAM_DATA,
            request_id=1,
            payload={"stream_id": "s"},
            buffers={0: payload},
        )
        parts = frame_parts(frame)
        assert len(parts) == 2
        view = parts[1]
        assert isinstance(view, memoryview)
        # Mutating the source shows through the part: it is a view.
        payload[0] = 255
        assert view[0] == 255

    def test_frame_parts_concatenate_to_encode_frame(self):
        frame = self.golden_frame()
        joined = b"".join(bytes(p) for p in frame_parts(frame))
        assert joined == encode_frame(frame)


class TestSliceBounds:
    @pytest.mark.parametrize("length", [0, 1, 7, 64, 1152])
    @pytest.mark.parametrize("num_slices", [1, 2, 7, 64, 200])
    def test_partition_covers_exactly(self, length, num_slices):
        bounds = slice_bounds(length, num_slices)
        assert len(bounds) == num_slices + 1
        assert bounds[0] == 0 and bounds[-1] == length
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        total = sum(b - a for a, b in zip(bounds, bounds[1:]))
        assert total == length

    def test_balanced_within_one_byte(self):
        bounds = slice_bounds(1000, 7)
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_slices(self):
        with pytest.raises(WireFormatError):
            slice_bounds(100, 0)


# ----------------------------------------------------------------------
# Per-slice GF aggregation state (_PartialTask)
# ----------------------------------------------------------------------
def make_task(children=("cs-01", "cs-02"), num_slices=4, chunk_id=None):
    request = PartialOpRequest(
        repair_id="r1",
        stripe_id="s1",
        chunk_id=chunk_id,
        entries=(),
        rows=2,
        chunk_size=64.0,
        children=tuple(children),
        parent="cs-09",
        send_rows=frozenset(),
        send_fraction=1.0,
        read_fraction=1.0,
        num_slices=num_slices,
    )
    task = _PartialTask(request=request, peers={})
    task.agg.set_row_len(16)
    return task


class TestSliceAggregation:
    def test_out_of_order_slices_merge_byte_identically(self):
        """Segments arriving in any order produce the XOR of the wholes."""
        rng = np.random.default_rng(5)
        a = {0: rng.integers(0, 256, 16, np.uint8)}
        b = {0: rng.integers(0, 256, 16, np.uint8)}
        task = make_task(num_slices=4)
        bounds = slice_bounds(16, 4)
        # Child A delivers slices 3,0,2,1; child B delivers 1,3,0,2.
        for sender, whole, order in (
            ("cs-01", a, [3, 0, 2, 1]),
            ("cs-02", b, [1, 3, 0, 2]),
        ):
            for index in order:
                lo, hi = bounds[index], bounds[index + 1]
                assert task.merge(
                    sender, index, index, {0: whole[0][lo:hi]}, lo
                )
        expected = RepairRecipe.merge_partials(a, b)
        assert np.array_equal(task.agg.partial[0], expected[0])
        # every slice is now ready (no local chunk on this node)
        for index in range(4):
            assert task.slice_event(index).is_set()

    def test_duplicate_segment_is_ignored(self):
        task = make_task(children=("cs-01",), num_slices=2)
        seg = np.arange(8, dtype=np.uint8)
        assert task.merge("cs-01", 0, 0, {0: seg}, 0)
        before = task.agg.partial[0].copy()
        # The same segment again must not double-XOR.
        assert not task.merge("cs-01", 0, 0, {0: seg}, 0)
        assert np.array_equal(task.agg.partial[0], before)

    def test_unknown_sender_is_rejected(self):
        task = make_task(children=("cs-01",))
        with pytest.raises(AggregationError):
            task.merge("cs-99", 0, 0, {0: np.zeros(4, np.uint8)}, 0)

    def test_slice_index_out_of_range(self):
        task = make_task(num_slices=2)
        with pytest.raises(AggregationError):
            task.merge("cs-01", 2, 2, {0: np.zeros(4, np.uint8)}, 0)

    def test_segment_overrun_is_rejected(self):
        task = make_task()
        with pytest.raises(AggregationError):
            task.merge("cs-01", 0, 0, {0: np.zeros(8, np.uint8)}, 12)

    def test_row_len_mismatch_is_rejected(self):
        task = make_task()
        with pytest.raises(AggregationError):
            task.agg.set_row_len(32)

    def test_slice_waits_for_all_children(self):
        task = make_task(children=("cs-01", "cs-02"), num_slices=2)
        task.merge("cs-01", 0, 0, {0: np.ones(8, np.uint8)}, 0)
        assert not task.slice_event(0).is_set()
        task.merge("cs-02", 0, 0, {0: np.ones(8, np.uint8)}, 0)
        assert task.slice_event(0).is_set()
        assert not task.slice_event(1).is_set()

    def test_whole_partials_aggregate_in_place(self):
        """One-slice streams keep whole rows in place: a row's first
        contribution — the local partial, or a segment covering the
        whole row — is adopted, not copied, and later contributions XOR
        into that very array."""
        rng = np.random.default_rng(9)
        local = {0: rng.integers(0, 256, 16, np.uint8)}
        first = {1: rng.integers(0, 256, 16, np.uint8)}
        later = {r: rng.integers(0, 256, 16, np.uint8) for r in (0, 1)}
        expected = RepairRecipe.merge_partials(
            RepairRecipe.merge_partials(local, first), later
        )
        held = {0: local[0], 1: first[1]}
        task = make_task(
            children=("cs-01", "cs-02"), num_slices=1, chunk_id="c0"
        )
        assert task.merge(LOCAL, 0, 0, dict(local))
        assert task.merge("cs-01", 0, 0, dict(first), 0)
        assert all(task.agg.partial[r] is held[r] for r in (0, 1))
        assert task.merge("cs-02", 0, 0, dict(later), 0)
        assert all(task.agg.partial[r] is held[r] for r in (0, 1))
        for r in (0, 1):
            assert np.array_equal(task.agg.partial[r], expected[r])
        assert task.slice_event(0).is_set()
        assert task.add_remote("cs-01", [], [])
        assert task.add_remote("cs-02", [], [])
        assert not task.add_remote("cs-02", [], [])  # duplicate END
        assert task.inputs_ready.is_set()

    def test_partial_segment_is_not_adopted(self):
        """A segment short of a whole row lands in a fresh zeroed row:
        the sender's buffer is never aliased."""
        task = make_task(children=("cs-01",), num_slices=2)
        seg = np.arange(8, dtype=np.uint8)
        assert task.merge("cs-01", 0, 0, {0: seg}, 0)
        assert task.agg.partial[0] is not seg
        assert np.array_equal(task.agg.partial[0][:8], seg)
        assert not task.agg.partial[0][8:].any()


# ----------------------------------------------------------------------
# Transport: one-way DATA, pinned sender, TCP backpressure, abort
# ----------------------------------------------------------------------
async def stream_server(config=CONFIG):
    """An RpcServer wired like a chunk server's stream plane, except that
    DATA frames are queued for the test to read instead of merged."""
    server = RpcServer("sink", config)
    inbox = StreamInbox(config)
    server.trailers = {}
    server.begin_request_ids = []

    async def on_begin(frame: Frame):  # one-way: must not suspend
        server.begin_request_ids.append(frame.request_id)
        inbox.open(str(frame.payload["stream_id"]), frame.payload)

    async def on_data(frame: Frame):  # one-way: must not suspend
        try:
            stream = inbox.get(str(frame.payload["stream_id"]))
        except StreamError:
            return  # nobody to tell: the frame is dropped
        stream.bytes_received += sum(b.nbytes for b in frame.buffers.values())
        await stream.deliver(frame, timeout=config.partial_wait_timeout)

    async def on_end(frame: Frame):
        stream = inbox.get(str(frame.payload["stream_id"]))
        server.trailers[stream.stream_id] = dict(frame.payload)
        stream.finish()
        return {"merged": True, "nbytes": stream.bytes_received}

    async def on_abort(frame: Frame):
        stream_id = str(frame.payload["stream_id"])
        stream = inbox.get(stream_id)
        inbox.discard(stream_id)
        stream.abort(str(frame.payload.get("reason", "")))
        return {"aborted": True}

    server.register(MessageType.STREAM_BEGIN, on_begin)
    server.register(MessageType.STREAM_DATA, on_data)
    server.register(MessageType.STREAM_END, on_end)
    server.register(MessageType.STREAM_ABORT, on_abort)
    await server.start()
    return server, inbox


async def opened(inbox: StreamInbox, stream_id: str):
    """The inbound stream once the receiver has handled its one-way BEGIN
    (nothing answers BEGIN, so a test polls for its effect)."""
    for _ in range(200):
        try:
            return inbox.get(stream_id)
        except StreamError:
            await asyncio.sleep(0.005)
    raise AssertionError(f"BEGIN for {stream_id} never arrived")


class TestStreamTransport:
    def test_begin_data_end_roundtrip(self):
        async def scenario():
            server, inbox = await stream_server()
            client = RpcClient(server.address, CONFIG)
            sender = StreamSender(client, "r1/cs-00", CONFIG)
            try:
                assert await sender.begin(
                    {"repair_id": "r1", "sender": "cs-00"}
                ) is None  # nothing to wait for: BEGIN is never answered
                stream = await opened(inbox, "r1/cs-00")
                for index in range(3):
                    await sender.data(
                        {"slice_index": index, "offset": index * 4},
                        {0: np.full(4, index, np.uint8)},
                    )
                got = []

                async def consume():
                    while True:
                        frame = await stream.next_frame()
                        if frame is None:
                            return
                        got.append(int(frame.payload["slice_index"]))

                consumer = asyncio.create_task(consume())
                reply = await sender.end({"trailer": True})
                await consumer
                return (
                    got,
                    server.trailers["r1/cs-00"],
                    sender.bytes_sent,
                    reply.payload["nbytes"],
                    server.begin_request_ids,
                )
            finally:
                await client.close()
                await server.close()

        got, trailer, sent, acked, begin_ids = run(scenario())
        assert got == [0, 1, 2]  # one connection: arrival order is send order
        assert trailer["trailer"] is True
        assert sent == acked == 12
        assert begin_ids == [0]  # BEGIN went out one-way (request id 0)

    def test_data_without_begin_is_rejected(self):
        async def scenario():
            server, _ = await stream_server()
            client = RpcClient(server.address, CONFIG)
            sender = StreamSender(client, "r1/cs-00", CONFIG)
            try:
                with pytest.raises(StreamError):
                    await sender.data({}, {0: np.zeros(1, np.uint8)})
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_unknown_stream_id_is_a_remote_error(self):
        """END for an unknown stream is answered with StreamError; a
        one-way DATA for it is dropped and the connection lives on."""

        async def scenario():
            server, _ = await stream_server()
            client = RpcClient(server.address, CONFIG)
            try:
                await client.send(
                    MessageType.STREAM_DATA,
                    {"stream_id": "never-opened", "slice_index": 0,
                     "offset": 0},
                    {0: np.zeros(4, np.uint8)},
                )
                connection = client._connection
                with pytest.raises(RpcError) as err:
                    await client.call(
                        MessageType.STREAM_END,
                        {"stream_id": "never-opened"},
                        retries=0,
                    )
                assert client._connection is connection
                return str(err.value)
            finally:
                await client.close()
                await server.close()

        assert "StreamError" in run(scenario())

    def test_truncated_stream_poisons_sender(self):
        """Peer death mid-stream surfaces at the next call, not silently,
        and every call after it fails too."""

        async def scenario():
            server, _ = await stream_server()
            client = RpcClient(server.address, CONFIG)
            sender = StreamSender(client, "r1/cs-00", CONFIG)
            segment = {0: np.zeros(4, np.uint8)}
            try:
                await sender.begin({"repair_id": "r1", "sender": "cs-00"})
                await sender.data({"slice_index": 0, "offset": 0}, segment)
                # The receiver dies: remaining DATA and END must fail.
                await server.close(abort=True)
                with pytest.raises((RpcError, StreamError)):
                    await sender.data(
                        {"slice_index": 1, "offset": 4}, segment
                    )
                    await sender.end({})
                with pytest.raises((RpcError, StreamError)):
                    await sender.end({})
            finally:
                await client.close()

        run(scenario())

    def test_connection_change_poisons_stream(self):
        """A lost connection must not be silently replaced mid-stream:
        a reconnect would carry DATA i+1.. without DATA i.  The sender
        is pinned to BEGIN's connection and fails instead."""

        async def scenario():
            server, inbox = await stream_server()
            client = RpcClient(server.address, CONFIG)
            sender = StreamSender(client, "r1/cs-00", CONFIG)
            segment = {0: np.zeros(4, np.uint8)}
            try:
                await sender.begin({"repair_id": "r1", "sender": "cs-00"})
                await sender.data({"slice_index": 0, "offset": 0}, segment)
                client._connection.close(abort=True)
                # another stream reconnects the client
                await StreamSender(client, "r1/cs-01", CONFIG).begin(
                    {"repair_id": "r1", "sender": "cs-01"}
                )
                with pytest.raises(StreamError, match="lost since BEGIN"):
                    await sender.data(
                        {"slice_index": 1, "offset": 4}, segment
                    )
                with pytest.raises(StreamError):
                    await sender.end({})
                await asyncio.sleep(0.05)
                return inbox.get("r1/cs-00").bytes_received
            finally:
                await client.close()
                await server.close()

        assert run(scenario()) <= 4  # slice 1 never left the sender

    def test_stream_abort_frees_receiver_state(self):
        async def scenario():
            server, inbox = await stream_server()
            client = RpcClient(server.address, CONFIG)
            sender = StreamSender(client, "r1/cs-00", CONFIG)
            try:
                await sender.begin({"repair_id": "r1", "sender": "cs-00"})
                stream = await opened(inbox, "r1/cs-00")
                await sender.abort("helper failed")
                with pytest.raises(RepairAbortedError):
                    await stream.next_frame()
                assert len(inbox) == 0
                # the sender is closed: no frames after ABORT
                with pytest.raises(StreamError):
                    await sender.end({})
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_abort_before_begin_sends_nothing(self):
        """A helper that fails before its slice 0 was ready never opened
        a stream, so its ABORT has nothing to free and stays unsent."""

        async def scenario():
            server, _ = await stream_server()
            client = RpcClient(server.address, CONFIG)
            sender = StreamSender(client, "r1/cs-00", CONFIG)
            try:
                await sender.abort("subtree timed out")
                with pytest.raises(StreamError):
                    await sender.begin({"repair_id": "r1", "sender": "cs-00"})
                return client._connection
            finally:
                await client.close()
                await server.close()

        assert run(scenario()) is None  # never even connected

    def test_abort_repair_sweeps_all_streams(self):
        async def scenario():
            inbox = StreamInbox(CONFIG)
            inbox.open("r1/cs-00", {"repair_id": "r1", "sender": "cs-00"})
            aborted = inbox.open(
                "r1/cs-01", {"repair_id": "r1", "sender": "cs-01"}
            )
            inbox.open("r2/cs-00", {"repair_id": "r2", "sender": "cs-00"})
            hit = inbox.abort_repair("r1", "coordinator replan")
            assert sorted(hit) == ["r1/cs-00", "r1/cs-01"]
            assert len(inbox) == 1  # r2's stream survives
            with pytest.raises(RepairAbortedError):
                await aborted.next_frame()
            return True

        assert run(scenario())

    def test_backpressure_stalls_then_times_out(self):
        """A receiver that stops reading stalls ``data()`` in ``drain()``
        — a bounded wait on it times out — with no ack or window
        involved; once it reads again, END's ack reports every byte."""
        segment = {0: np.zeros(1 << 20, np.uint8)}

        async def scenario():
            server, inbox = await stream_server()
            client = RpcClient(server.address, CONFIG)
            sender = StreamSender(client, "r1/cs-00", CONFIG)
            try:
                await sender.begin({"repair_id": "r1", "sender": "cs-00"})
                await opened(inbox, "r1/cs-00")
                (connection,) = server._connections
                connection._transport.pause_reading()
                for index in range(64):  # the socket buffers fill up
                    pending = asyncio.ensure_future(
                        sender.data({"slice_index": index, "offset": 0}, segment)
                    )
                    done, _ = await asyncio.wait({pending}, timeout=0.2)
                    if not done:
                        break
                    pending.result()
                assert not pending.done(), "data() never blocked"
                connection._transport.resume_reading()
                await asyncio.wait_for(pending, 5.0)
                reply = await sender.end({})
                return index + 1, sender.bytes_sent, reply.payload["nbytes"]
            finally:
                await client.close()
                await server.close()

        frames, sent, acked = run(scenario())
        assert frames > 1
        assert sent == acked == frames * (1 << 20)
