"""Property-based tests: one-way stream DATA against a live chunk server.

Any slice count, any row length — so any segment sizes, empty ones
included — and several streams interleaved on one connection in any
order: every one-way ``STREAM_DATA`` is merged before its ``STREAM_END``
is acknowledged, and the aggregate is byte-identical to XOR-ing the
children's whole rows.  Without acks, END is also the only place a lost
segment or a planless one-way ``STREAM_BEGIN`` can show, so an END whose
stream skipped a slice, or whose repair has no plan here, must fail.
"""

import asyncio
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import RpcRemoteError
from repro.fs.messages import PartialOpRequest
from repro.live.chunkserver import LiveChunkServer, _PartialTask
from repro.live.config import LiveConfig
from repro.live.rpc import RpcClient, StreamSender
from repro.live.wire import MessageType, slice_bounds

CONFIG = LiveConfig(
    connect_timeout=1.0, rpc_timeout=2.0, partial_wait_timeout=2.0, max_retries=0
)


def make_task(children, rows, row_len, num_slices) -> _PartialTask:
    """The aggregation state a PARTIAL_OP would register for repair r1."""
    request = PartialOpRequest(
        repair_id="r1",
        stripe_id="s1",
        chunk_id=None,
        entries=(),
        rows=rows,
        chunk_size=float(rows * row_len),
        children=tuple(children),
        parent="cs-up",
        send_rows=frozenset(),
        send_fraction=1.0,
        read_fraction=1.0,
        num_slices=num_slices,
    )
    task = _PartialTask(request=request, peers={})
    task.agg.set_row_len(row_len)
    return task


async def with_server(scenario, task: _PartialTask):
    """Run ``scenario(client)`` against a chunk server holding ``task``."""
    server = LiveChunkServer("cs-dst", None, CONFIG)
    client = RpcClient(await server.start(), CONFIG)
    server.tasks["r1"] = task
    try:
        return await scenario(client), len(server.inbox)
    finally:
        await client.close()
        await server.stop()


def begin_payload(name: str, task: _PartialTask) -> dict:
    return {
        "repair_id": "r1",
        "sender": name,
        "num_slices": task.num_slices,
        "row_len": task.agg.row_len,
    }


@st.composite
def interleavings(draw):
    num_slices = draw(st.integers(1, 12))
    children = draw(st.integers(1, 4))
    return (
        num_slices,
        draw(st.integers(1, 3000)),  # row_len: may be < num_slices
        children,
        draw(st.integers(1, 3)),  # rows per partial
        draw(st.permutations(
            [(c, i) for c in range(children) for i in range(num_slices)]
        )),
        draw(st.permutations(range(children))),  # END order
        draw(st.integers(0, 2**32 - 1)),
    )


class TestOneWayStreams:
    @given(interleavings())
    @settings(max_examples=40, deadline=None)
    def test_every_data_is_merged_before_its_end_ack(self, case):
        num_slices, row_len, children, rows, order, ends, seed = case
        rng = np.random.default_rng(seed)
        names = [f"cs-{c:02d}" for c in range(children)]
        whole = {
            name: {r: rng.integers(0, 256, row_len, np.uint8) for r in range(rows)}
            for name in names
        }
        bounds = slice_bounds(row_len, num_slices)
        task = make_task(names, rows, row_len, num_slices)

        async def scenario(client):
            senders = {
                name: StreamSender(client, f"r1/{name}", CONFIG) for name in names
            }
            for name in names:
                await senders[name].begin(begin_payload(name, task))
            for c, i in order:
                lo, hi = bounds[i], bounds[i + 1]
                await senders[names[c]].data(
                    {"slice_index": i, "offset": lo},
                    {r: buf[lo:hi] for r, buf in whole[names[c]].items()},
                )
            acked = {}
            for c in ends:
                reply = await senders[names[c]].end(
                    {"repair_id": "r1", "sender": names[c],
                     "trace": [], "traffic": []}
                )
                acked[names[c]] = reply.payload["nbytes"]
            return acked

        acked, open_streams = asyncio.run(with_server(scenario, task))
        assert acked == {name: rows * row_len for name in names}
        assert open_streams == 0
        assert task.received == set(names) and task.inputs_complete
        for r in range(rows):
            expected = functools.reduce(
                np.bitwise_xor, (whole[name][r] for name in names)
            )
            assert np.array_equal(task.agg.partial[r], expected)


class TestEndChecksCompleteness:
    def test_end_fails_when_a_slice_never_arrived(self):
        task = make_task(["cs-01"], rows=1, row_len=64, num_slices=4)
        bounds = slice_bounds(64, 4)

        async def scenario(client):
            sender = StreamSender(client, "r1/cs-01", CONFIG)
            await sender.begin(begin_payload("cs-01", task))
            for i in (0, 1, 3):  # slice 2 is lost
                await sender.data(
                    {"slice_index": i, "offset": bounds[i]},
                    {0: np.ones(bounds[i + 1] - bounds[i], np.uint8)},
                )
            with pytest.raises(RpcRemoteError) as err:
                await sender.end({"trace": [], "traffic": []})
            return err.value

        error, open_streams = asyncio.run(with_server(scenario, task))
        assert error.code == "StreamError"
        assert "1 of 4 slices missing" in error.remote_message
        assert task.aborted and not task.received  # the failure cascades
        assert open_streams == 0

    def test_data_for_an_unknown_stream_is_dropped_and_counted(self):
        dropped = obs.registry().counter("live.stream.dropped_frames")
        before = dropped.value

        async def scenario(client):
            for _ in range(3):
                await client.send(
                    MessageType.STREAM_DATA,
                    {"stream_id": "r1/nobody", "slice_index": 0, "offset": 0},
                    {0: np.zeros(8, np.uint8)},
                )
            return (await client.call(MessageType.PING, {})).payload

        pong, _ = asyncio.run(
            with_server(scenario, make_task(["cs-01"], 1, 8, 2))
        )
        assert pong["server_id"] == "cs-dst"  # the connection survived
        assert dropped.value - before == 3


class TestPlanlessBegin:
    @given(st.integers(1, 12), st.integers(1, 3000))
    @settings(max_examples=20, deadline=None)
    def test_begin_without_a_plan_is_dropped_and_end_fails(
        self, num_slices, row_len
    ):
        """BEGIN for a repair with no plan here (r2; only r1 is planned)
        is dropped and counted, so are its DATA frames, END fails, and no
        stream is left behind; r1's aggregation state is untouched."""
        dropped = obs.registry().counter("live.stream.dropped_frames")
        before = dropped.value
        task = make_task(["cs-01"], 1, row_len, num_slices)
        bounds = slice_bounds(row_len, num_slices)

        async def scenario(client):
            sender = StreamSender(client, "r2/cs-01", CONFIG)
            await sender.begin(
                {**begin_payload("cs-01", task), "repair_id": "r2"}
            )
            for i in range(num_slices):
                await sender.data(
                    {"slice_index": i, "offset": bounds[i]},
                    {0: np.ones(bounds[i + 1] - bounds[i], np.uint8)},
                )
            with pytest.raises(RpcRemoteError) as err:
                await sender.end({"trace": [], "traffic": []})
            assert not task.aborted  # read before shutdown aborts it
            return err.value

        error, open_streams = asyncio.run(with_server(scenario, task))
        assert error.code == "StreamError"
        assert dropped.value - before == 1 + num_slices
        assert open_streams == 0
        assert not any(task.agg.got) and not task.agg.partial


#: Off-rule DATA segments for one row of 16 bytes in 4 slices (slice i is
#: bytes [4i, 4i + 4)): ``(slice_index, offset, nbytes, row)``.
OFF_RULE_SEGMENTS = {
    "offset_before_row": (0, -8, 4, 0),
    "short_segment": (1, 4, 2, 0),
    "wrong_slice_for_offset": (2, 0, 4, 0),
    "row_past_rows": (0, 0, 4, 5),
    "negative_row": (0, 0, 4, -1),
}


class TestSegmentGeometry:
    @pytest.mark.parametrize("case", sorted(OFF_RULE_SEGMENTS))
    def test_off_rule_segment_fails_the_end_ack(self, case):
        """A DATA segment must be exactly its slice of a planned row; one
        that is not is never XORed in, and the END ack fails even when
        every other slice arrived correctly."""
        bad_index, bad_offset, bad_len, bad_row = OFF_RULE_SEGMENTS[case]
        task = make_task(["cs-01"], rows=1, row_len=16, num_slices=4)
        bounds = slice_bounds(16, 4)

        async def scenario(client):
            sender = StreamSender(client, "r1/cs-01", CONFIG)
            await sender.begin(begin_payload("cs-01", task))
            await sender.data(
                {"slice_index": bad_index, "offset": bad_offset},
                {bad_row: np.full(bad_len, 0xAB, np.uint8)},
            )
            for i in range(4):
                if i != bad_index:
                    await sender.data(
                        {"slice_index": i, "offset": bounds[i]},
                        {0: np.ones(4, np.uint8)},
                    )
            with pytest.raises(RpcRemoteError) as err:
                await sender.end({"trace": [], "traffic": []})
            return err.value

        error, open_streams = asyncio.run(with_server(scenario, task))
        assert error.code == "AggregationError"
        assert task.aborted and not task.received
        assert open_streams == 0
        assert not task.agg.got[bad_index]
        assert 0xAB not in task.agg.partial.get(0, np.zeros(0, np.uint8))
        assert set(task.agg.partial) <= {0}
