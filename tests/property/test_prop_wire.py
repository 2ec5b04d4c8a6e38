"""Property-based tests: the incremental frame parser.

``FrameParser`` sees a TCP byte stream in whatever pieces the kernel
hands over, so (a) no chunking of a valid stream may change the frames
it yields — 1-byte feeds, cuts inside the 13-byte header or the JSON
length word, bodies larger than its scratch — and (b) no byte sequence
at all may make it raise anything but ``WireFormatError``, hand asyncio
an empty buffer, or allocate for a length prefix it should have refused.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.live import wire
from repro.live.wire import (
    HEADER,
    Frame,
    FrameParser,
    MessageType,
    decode_body,
    encode_frame,
)
from tests.unit.test_live_wire import feed

SCRATCH = FrameParser.SCRATCH_BYTES
MAX_FRAME = 1 << 16

json_values = st.one_of(
    st.integers(-(2**40), 2**40), st.text(max_size=12), st.booleans(), st.none()
)
buffer_sizes = st.one_of(
    st.integers(0, 64),
    st.sampled_from([SCRATCH - 64, SCRATCH, SCRATCH + 1, 3 * SCRATCH + 7]),
)


@st.composite
def frames(draw):
    sizes = draw(st.dictionaries(st.integers(0, 9), buffer_sizes, max_size=3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return Frame(
        mtype=draw(st.sampled_from(list(MessageType))),
        request_id=draw(st.integers(0, 2**32 - 1)),
        payload=draw(st.dictionaries(st.text(max_size=8), json_values, max_size=4)),
        buffers={
            key: rng.integers(0, 256, size=size, dtype=np.uint8)
            for key, size in sizes.items()
        },
        flags=draw(st.integers(0, 3)),
        trace=draw(st.none() | st.just({"trace_id": "t", "span_id": "s"})),
    )


#: recv sizes: byte-at-a-time, header-sized, and big enough to swallow
#: several frames at once.
chunkings = st.lists(
    st.one_of(st.just(1), st.integers(1, 2 * HEADER.size), st.integers(1, 1 << 15)),
    max_size=200,
)


def one_shot(frame: Frame) -> Frame:
    raw = encode_frame(frame)
    return decode_body(
        int(frame.mtype), frame.flags, frame.request_id, raw[HEADER.size :]
    )


def assert_same(got: Frame, want: Frame) -> None:
    assert (got.mtype, got.request_id, got.flags) == (
        want.mtype, want.request_id, want.flags,
    )
    assert got.payload == want.payload and got.trace == want.trace
    assert got.buffers.keys() == want.buffers.keys()
    for key, buf in want.buffers.items():
        assert got.buffers[key].tobytes() == buf.tobytes()


class TestChunkingInvariance:
    @given(st.lists(frames(), min_size=1, max_size=4), chunkings)
    @settings(max_examples=150, deadline=None)
    def test_any_chunking_yields_the_one_shot_frames(self, sent, chunks):
        stream = b"".join(encode_frame(frame) for frame in sent)
        parser = FrameParser(1 << 20)
        got = feed(parser, stream, chunks)
        parser.eof()  # the stream ended on a frame boundary
        assert len(got) == len(sent)
        for have, frame in zip(got, sent):
            assert_same(have, one_shot(frame))

    def test_every_single_cut_point(self):
        """One cut at every offset of a small-then-large frame pair: inside
        each header, each JSON length word, and the over-scratch body."""
        sent = [
            Frame(MessageType.PING, 1, {"a": 1}),
            Frame(
                MessageType.PUT_CHUNK, 2, {"chunk_id": "c"},
                {0: np.arange(SCRATCH + 100, dtype=np.uint8)},
            ),
        ]
        stream = b"".join(encode_frame(frame) for frame in sent)
        for cut in range(1, len(stream)):
            parser = FrameParser(1 << 20)
            got = feed(parser, stream, [cut])
            parser.eof()
            assert len(got) == 2, cut
            assert_same(got[1], one_shot(sent[1]))

    def test_one_byte_feeds(self):
        frame = Frame(
            MessageType.STREAM_DATA, 9, {"stream_id": "s"},
            {1: np.arange(2 * SCRATCH, dtype=np.uint8)},
        )
        stream = encode_frame(frame) * 2
        got = feed(FrameParser(1 << 20), stream, [1] * len(stream))
        assert len(got) == 2
        assert_same(got[0], one_shot(frame))
        assert_same(got[1], one_shot(frame))


def hostile(stream: bytes, chunks) -> None:
    """Feed ``stream``; anything but frames or ``WireFormatError`` fails,
    and so does an allocation past the frame cap."""
    allocated = []

    def counting_bytearray(*args):
        if args and isinstance(args[0], int):
            allocated.append(args[0])
        return bytearray(*args)

    parser = FrameParser(MAX_FRAME)
    with mock.patch.object(wire, "bytearray", counting_bytearray, create=True):
        try:
            feed(parser, stream, chunks)
            parser.eof()
        except WireFormatError:
            pass
    assert all(size <= MAX_FRAME for size in allocated)


class TestFuzz:
    @given(st.binary(max_size=4096), chunkings)
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, blob, chunks):
        hostile(blob, chunks)

    @given(st.binary(max_size=512), chunkings)
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_behind_a_valid_magic_and_version(self, blob, chunks):
        hostile(b"PP" + bytes([wire.VERSION]) + blob, chunks)

    @given(frames(), st.data(), chunkings)
    @settings(max_examples=200, deadline=None)
    def test_bit_flipped_and_truncated_frames(self, frame, data, chunks):
        raw = bytearray(encode_frame(frame))
        for _ in range(data.draw(st.integers(0, 4))):
            # Flips land in the header and JSON region more often than not.
            at = data.draw(
                st.integers(0, min(len(raw), 64) - 1)
                | st.integers(0, len(raw) - 1)
            )
            raw[at] ^= 1 << data.draw(st.integers(0, 7))
        keep = data.draw(st.integers(0, len(raw)))
        hostile(bytes(raw[:keep]) + bytes(raw), chunks)

    @given(st.integers(0, 2**32 - 1), st.binary(max_size=64), chunkings)
    @settings(max_examples=200, deadline=None)
    def test_hostile_length_prefixes(self, body_len, tail, chunks):
        version = wire.VERSION
        head = HEADER.pack(b"PP", version, int(MessageType.PUT_CHUNK), 0, 1, body_len)
        hostile(head + tail, chunks)
        # ... and a hostile JSON length word inside a modest body.
        body = struct.pack("!I", body_len) + tail
        hostile(HEADER.pack(b"PP", version, 10, 0, 1, len(body)) + body, chunks)

    def test_oversize_is_refused_before_allocating(self):
        head = HEADER.pack(
            b"PP", wire.VERSION, int(MessageType.PUT_CHUNK), 0, 1, 2**32 - 1
        )
        parser = FrameParser(MAX_FRAME)
        with mock.patch.object(
            wire, "bytearray", mock.Mock(side_effect=AssertionError), create=True
        ):
            with pytest.raises(WireFormatError, match="exceeds cap"):
                feed(parser, head)
