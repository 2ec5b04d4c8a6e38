"""Wire format: framing round-trips and malformed-input rejection."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import CodingError, WireFormatError
from repro.live.wire import (
    HEADER,
    MAGIC,
    VERSION,
    Frame,
    FrameParser,
    MessageType,
    decode_body,
    encode_frame,
    error_frame,
    response_frame,
)


def roundtrip(frame: Frame) -> Frame:
    raw = encode_frame(frame)
    magic, version, mtype, flags, request_id, body_len = HEADER.unpack(
        raw[: HEADER.size]
    )
    assert magic == MAGIC and version == VERSION
    body = raw[HEADER.size :]
    assert len(body) == body_len
    return decode_body(mtype, flags, request_id, body)


class TestFrameRoundtrip:
    def test_payload_only(self):
        frame = Frame(
            mtype=MessageType.PING,
            request_id=7,
            payload={"server_id": "cs-01", "nested": {"a": [1, 2]}},
        )
        back = roundtrip(frame)
        assert back.mtype is MessageType.PING
        assert back.request_id == 7
        assert back.payload == frame.payload
        assert back.buffers == {}
        assert not back.is_response and not back.is_error

    def test_buffers_survive_bytewise(self):
        rng = np.random.default_rng(3)
        buffers = {
            0: rng.integers(0, 256, size=512, dtype=np.uint8),
            3: rng.integers(0, 256, size=17, dtype=np.uint8),
            1: np.zeros(0, dtype=np.uint8),
        }
        frame = Frame(
            mtype=MessageType.RAW_READ,
            request_id=99,
            payload={"repair_id": "r1"},
            buffers=buffers,
        )
        back = roundtrip(frame)
        assert set(back.buffers) == {0, 1, 3}
        for key, buf in buffers.items():
            assert np.array_equal(back.buffers[key], buf)
        # the index key never leaks into the payload
        assert "__buffers__" not in back.payload

    def test_empty_frame(self):
        back = roundtrip(Frame(mtype=MessageType.HELLO, request_id=0))
        assert back.payload == {} and back.buffers == {}

    def test_response_and_error_flags(self):
        request = Frame(mtype=MessageType.GET_CHUNK, request_id=5)
        ok = response_frame(request, {"x": 1})
        assert ok.is_response and not ok.is_error
        assert ok.request_id == 5

        err = error_frame(request, CodingError("boom"))
        back = roundtrip(err)
        assert back.is_response and back.is_error
        assert back.error_info() == ("CodingError", "boom")

    def test_non_repro_errors_become_internal(self):
        request = Frame(mtype=MessageType.GET_CHUNK, request_id=5)
        err = error_frame(request, ValueError("oops"))
        assert err.error_info()[0] == "InternalError"


class TestTraceHeader:
    def test_trace_context_round_trips(self):
        frame = Frame(
            mtype=MessageType.PARTIAL_OP,
            request_id=11,
            payload={"stripe_id": "s-1"},
            trace={"trace_id": "t0123", "span_id": "coord:r-1"},
        )
        back = roundtrip(frame)
        assert back.trace == {"trace_id": "t0123", "span_id": "coord:r-1"}
        # The reserved key is stripped from the payload on decode.
        assert back.payload == {"stripe_id": "s-1"}

    def test_untraced_frame_omits_header_key(self):
        raw = encode_frame(Frame(mtype=MessageType.PING, request_id=1))
        assert b"__trace__" not in raw
        assert roundtrip(Frame(mtype=MessageType.PING, request_id=1)).trace is None

    def test_non_dict_trace_value_tolerated(self):
        # A peer sending a malformed __trace__ must not break decoding.
        blob = b'{"__trace__": "bogus", "x": 1}'
        body = struct.pack("!I", len(blob)) + blob
        frame = decode_body(int(MessageType.PING), 0, 1, body)
        assert frame.trace is None
        assert frame.payload == {"x": 1}


class TestMalformedInput:
    def test_unknown_message_type(self):
        raw = encode_frame(Frame(mtype=MessageType.PING, request_id=1))
        body = raw[HEADER.size :]
        with pytest.raises(WireFormatError, match="unknown message type"):
            decode_body(250, 0, 1, body)

    def test_truncated_body(self):
        with pytest.raises(WireFormatError):
            decode_body(int(MessageType.PING), 0, 1, b"\x00")

    def test_json_length_overruns_body(self):
        body = struct.pack("!I", 1000) + b"{}"
        with pytest.raises(WireFormatError, match="exceeds body"):
            decode_body(int(MessageType.PING), 0, 1, body)

    def test_bad_json(self):
        blob = b"not json"
        body = struct.pack("!I", len(blob)) + blob
        with pytest.raises(WireFormatError, match="bad JSON"):
            decode_body(int(MessageType.PING), 0, 1, body)

    def test_non_object_json_header(self):
        blob = b"[1,2]"
        body = struct.pack("!I", len(blob)) + blob
        with pytest.raises(WireFormatError, match="must be an object"):
            decode_body(int(MessageType.PING), 0, 1, body)

    def test_buffer_index_overrun(self):
        blob = b'{"__buffers__": [[0, 64]]}'
        body = struct.pack("!I", len(blob)) + blob + b"\x00" * 8
        with pytest.raises(WireFormatError, match="overruns"):
            decode_body(int(MessageType.PING), 0, 1, body)

    @pytest.mark.parametrize(
        "index",
        [b"5", b"[[1]]", b"[[0, 1, 2]]", b'[{"a": 1}]', b'["ab"]',
         b'[["x", 1]]', b"[[0, -1]]"],
    )
    def test_malformed_buffer_index(self, index):
        """A buffer index that is not a list of [key, length] pairs — as
        a flipped bit can make it — is a format error, never a crash."""
        blob = b'{"__buffers__": ' + index + b"}"
        body = struct.pack("!I", len(blob)) + blob + b"\x00" * 2
        with pytest.raises(WireFormatError):
            decode_body(int(MessageType.PING), 0, 1, body)

    def test_trailing_garbage(self):
        blob = b"{}"
        body = struct.pack("!I", len(blob)) + blob + b"\xff\xff"
        with pytest.raises(WireFormatError, match="trailing"):
            decode_body(int(MessageType.PING), 0, 1, body)


def feed(parser: FrameParser, data: bytes, chunks=()):
    """Push ``data`` through ``parser`` the way a transport would: each
    ``recv_into`` delivers the next of ``chunks`` bytes (then everything
    left), but never more than the view the parser offered."""
    frames, at, sizes = [], 0, iter(chunks)
    while at < len(data):
        view = parser.get_buffer()
        assert len(view) > 0, "asyncio must never be handed an empty buffer"
        n = min(len(view), next(sizes, len(data)), len(data) - at)
        view[:n] = data[at : at + n]
        at += n
        frames.extend(parser.buffer_updated(n))
    return frames


class TestReadFrame:
    @staticmethod
    def _read_all(data: bytes, max_frame_bytes: int = 1 << 20):
        """Feed bytes to a fresh parser, then EOF; ``None`` marks a clean
        close at a frame boundary."""
        parser = FrameParser(max_frame_bytes)
        frames = feed(parser, data)
        parser.eof()
        return frames + [None]

    def test_clean_eof_returns_none(self):
        assert self._read_all(b"") == [None]

    def test_mid_frame_eof_raises(self):
        raw = encode_frame(Frame(mtype=MessageType.PING, request_id=1))
        with pytest.raises(WireFormatError, match="inside a frame"):
            self._read_all(raw[:5])
        with pytest.raises(WireFormatError, match="inside a frame"):
            self._read_all(raw[:-1])

    def test_two_frames_back_to_back(self):
        first = Frame(mtype=MessageType.PING, request_id=1)
        second = Frame(
            mtype=MessageType.GET_CHUNK,
            request_id=2,
            payload={"chunk_id": "c"},
        )
        a, b, c = self._read_all(encode_frame(first) + encode_frame(second))
        assert a.mtype is MessageType.PING and a.request_id == 1
        assert b.mtype is MessageType.GET_CHUNK and b.request_id == 2
        assert c is None

    def test_bad_magic(self):
        raw = bytearray(encode_frame(Frame(mtype=MessageType.PING, request_id=1)))
        raw[0:2] = b"XX"
        with pytest.raises(WireFormatError, match="magic"):
            self._read_all(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(encode_frame(Frame(mtype=MessageType.PING, request_id=1)))
        raw[2] = 9
        with pytest.raises(WireFormatError, match="version"):
            self._read_all(bytes(raw))

    def test_oversized_frame_rejected(self):
        big = Frame(
            mtype=MessageType.PUT_CHUNK,
            request_id=1,
            buffers={0: np.zeros(4096, dtype=np.uint8)},
        )
        with pytest.raises(WireFormatError, match="exceeds cap"):
            self._read_all(encode_frame(big), max_frame_bytes=256)
