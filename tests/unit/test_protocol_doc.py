"""docs/PROTOCOL.md is normative — keep it in lockstep with wire.py.

These tests enumerate the wire module's constants and assert the spec
documents every one of them, and re-assemble the spec's worked hexdump
to prove it is the byte-exact golden frame, not an illustration that
drifted.
"""

from __future__ import annotations

import pathlib
import re

from repro.live import wire

DOC = (
    pathlib.Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"
).read_text(encoding="utf-8")


class TestConstantsAreDocumented:
    def test_every_message_type_in_spec_table(self):
        for member in wire.MessageType:
            row = re.compile(
                rf"\|\s*{member.value}\s*\|\s*`{member.name}`\s*\|"
            )
            assert row.search(DOC), (
                f"docs/PROTOCOL.md has no message-type table row for "
                f"{member.name} = {member.value}"
            )

    def test_version_constants(self):
        assert f"VERSION = {wire.VERSION}" in DOC
        assert f"SUPPORTED_VERSIONS = {wire.SUPPORTED_VERSIONS}" in DOC
        # the frame grammar names the emitted version byte
        assert f"protocol version ({wire.VERSION}" in DOC

    def test_flag_bits(self):
        assert "FLAG_RESPONSE" in DOC
        assert "FLAG_ERROR" in DOC
        assert wire.FLAG_RESPONSE == 0x01
        assert wire.FLAG_ERROR == 0x02

    def test_magic_and_header_shape(self):
        assert 'magic  b"PP"' in DOC
        assert wire.MAGIC == b"PP"
        # 13-byte fixed header: the grammar's body offset
        assert wire.HEADER.size == 13
        assert "13      ...   body" in DOC

    def test_reserved_header_keys(self):
        assert "`__buffers__`" in DOC
        assert "`__trace__`" in DOC


class TestWorkedHexdumpIsGolden:
    def hexdump_bytes(self) -> bytes:
        """Re-assemble the spec's STREAM_DATA hexdump into raw bytes."""
        rows = re.findall(
            r"^([0-9a-f]{4})  ((?:[0-9a-f]{2}[ ]{1,2})+)", DOC, re.MULTILINE
        )
        assert rows, "no hexdump block found in docs/PROTOCOL.md"
        data = bytearray()
        for offset, hexpart in rows:
            assert int(offset, 16) == len(data), "hexdump offsets skip"
            data.extend(bytes.fromhex(hexpart.replace(" ", "")))
        return bytes(data)

    def test_hexdump_decodes_as_the_golden_stream_frame(self):
        raw = self.hexdump_bytes()
        assert len(raw) == 95
        magic, version, mtype, flags, request_id, body_len = (
            wire.HEADER.unpack(raw[: wire.HEADER.size])
        )
        assert magic == wire.MAGIC
        assert version == wire.VERSION
        assert wire.MessageType(mtype) is wire.MessageType.STREAM_DATA
        assert flags == 0
        assert request_id == 0  # one-way: STREAM_DATA is never answered
        assert body_len == len(raw) - wire.HEADER.size

    def test_hexdump_matches_wire_encoding_exactly(self):
        import numpy as np

        frame = wire.Frame(
            mtype=wire.MessageType.STREAM_DATA,
            request_id=0,
            payload={
                "stream_id": "r1/cs-00",
                "slice_index": 3,
                "offset": 16,
            },
            buffers={2: np.arange(4, dtype=np.uint8)},
        )
        assert wire.encode_frame(frame) == self.hexdump_bytes()
