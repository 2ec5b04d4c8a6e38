"""Vectorized GF kernels against scalar and table-gather references."""

import numpy as np
import pytest

from repro.errors import GaloisError
from repro.galois.field import gf256
from repro.galois.tables import GF_MUL
from repro.galois.vector import BLOCK, addmul, combine, scale, xor_into

BLOCK_EDGE_LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


@pytest.fixture
def buf(rng):
    return rng.integers(0, 256, size=257, dtype=np.uint8)


def test_scale_matches_scalar_field(buf):
    out = scale(7, buf)
    for i in [0, 1, 100, 256]:
        assert int(out[i]) == gf256.mul(7, int(buf[i]))


def test_every_coefficient_matches_scalar_oracle():
    every_byte = np.arange(256, dtype=np.uint8)
    for coeff in range(256):
        expected = [gf256.mul(coeff, x) for x in range(256)]
        assert scale(coeff, every_byte).tolist() == expected
        acc = np.zeros(256, dtype=np.uint8)
        addmul(acc, coeff, every_byte)
        assert acc.tolist() == expected


def test_scale_zero_and_one(buf):
    assert not scale(0, buf).any()
    assert np.array_equal(scale(1, buf), buf)
    assert scale(1, buf) is not buf  # must be a copy


@pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
def test_block_edges_match_table_gather(rng, length):
    src = rng.integers(0, 256, size=length, dtype=np.uint8)
    before = rng.integers(0, 256, size=length, dtype=np.uint8)
    for coeff in (0, 1, 2, 87, 255):
        product = GF_MUL[coeff][src]
        assert np.array_equal(scale(coeff, src), product)
        dst = before.copy()
        assert addmul(dst, coeff, src) is dst
        assert np.array_equal(dst, before ^ product)


def test_read_only_source(rng):
    raw = rng.integers(0, 256, size=BLOCK + 5, dtype=np.uint8).tobytes()
    src = np.frombuffer(raw, dtype=np.uint8)
    assert not src.flags.writeable
    dst = np.zeros(src.size, dtype=np.uint8)
    addmul(dst, 29, src)
    assert np.array_equal(dst, GF_MUL[29][src])
    assert np.array_equal(scale(29, src), dst)


def test_strided_source_and_destination(rng):
    wide_src = rng.integers(0, 256, size=2 * BLOCK + 6, dtype=np.uint8)
    wide_dst = rng.integers(0, 256, size=2 * BLOCK + 6, dtype=np.uint8)
    before = wide_dst.copy()
    src, dst = wide_src[::2], wide_dst[1::2]
    addmul(dst, 113, src)
    assert np.array_equal(dst, before[1::2] ^ GF_MUL[113][src])
    assert np.array_equal(wide_dst[::2], before[::2])  # gaps untouched
    assert np.array_equal(scale(113, src), GF_MUL[113][src])


@pytest.mark.parametrize("shape", [(3, 50), (5, BLOCK // 2 + 3), (2, BLOCK + 1)])
def test_two_dimensional_buffers(rng, shape):
    src = rng.integers(0, 256, size=shape, dtype=np.uint8)
    before = rng.integers(0, 256, size=shape, dtype=np.uint8)
    dst = before.copy()
    addmul(dst, 201, src)
    assert np.array_equal(dst, before ^ GF_MUL[201][src])
    # Column-sliced views: 2-D and non-contiguous on both sides.
    dst = before.copy()
    addmul(dst[:, 1:], 201, src[:, :-1])
    assert np.array_equal(dst[:, 1:], before[:, 1:] ^ GF_MUL[201][src[:, :-1]])
    assert np.array_equal(dst[:, 0], before[:, 0])
    assert np.array_equal(scale(201, src.T), GF_MUL[201][src.T])


def test_addmul_onto_itself_scales_by_coeff_plus_one(rng):
    original = rng.integers(0, 256, size=BLOCK + 9, dtype=np.uint8)
    for coeff in (0, 1, 2, 140):
        aliased = original.copy()
        addmul(aliased, coeff, aliased)
        assert np.array_equal(aliased, scale(coeff ^ 1, original))


def test_xor_into_is_gf_addition(buf, rng):
    other = rng.integers(0, 256, size=buf.size, dtype=np.uint8)
    dst = buf.copy()
    xor_into(dst, other)
    assert np.array_equal(dst, buf ^ other)


def test_addmul_fused(buf, rng):
    other = rng.integers(0, 256, size=buf.size, dtype=np.uint8)
    dst = buf.copy()
    addmul(dst, 5, other)
    assert np.array_equal(dst, buf ^ scale(5, other))


def test_addmul_coeff_zero_is_noop(buf, rng):
    other = rng.integers(0, 256, size=buf.size, dtype=np.uint8)
    dst = buf.copy()
    addmul(dst, 0, other)
    assert np.array_equal(dst, buf)


def test_addmul_coeff_one_is_xor(buf, rng):
    other = rng.integers(0, 256, size=buf.size, dtype=np.uint8)
    dst = buf.copy()
    addmul(dst, 1, other)
    assert np.array_equal(dst, buf ^ other)


def test_linear_combine_matches_manual(rng):
    bufs = [rng.integers(0, 256, size=64, dtype=np.uint8) for _ in range(3)]
    out = [np.full(64, 0xAA, dtype=np.uint8)]  # stale bytes must not leak
    combine(out, bufs, [(0, 0, 3), (0, 1, 0), (0, 2, 251)])
    assert np.array_equal(out[0], scale(3, bufs[0]) ^ scale(251, bufs[2]))


def test_linear_combine_length_mismatch(rng):
    short = rng.integers(0, 256, size=63, dtype=np.uint8)
    full = rng.integers(0, 256, size=64, dtype=np.uint8)
    with pytest.raises(GaloisError):
        combine([np.empty(64, dtype=np.uint8)], [full, short], [(0, 0, 2), (0, 1, 3)])
    with pytest.raises(GaloisError):
        combine([np.empty(63, dtype=np.uint8), np.empty(64, dtype=np.uint8)],
                [short, full], [(0, 0, 2), (1, 1, 3)])


def test_combine_rows_with_one_term_and_with_several(rng):
    """Rotated-RS shape: sub-chunk rows, dict outputs, 2-D source stack."""
    length = BLOCK + 11
    sources = rng.integers(0, 256, size=(4, length), dtype=np.uint8)
    entries = [(0, 0, 9), (2, 1, 1), (0, 3, 77), (0, 0, 200), (5, 2, 1)]
    out = {row: np.full(length, 0x55, dtype=np.uint8) for row in (0, 2, 5, 7)}
    combine(out, sources, entries)
    naive = {row: np.zeros(length, dtype=np.uint8) for row in (0, 2, 5)}
    for lost_row, helper_row, coeff in entries:
        addmul(naive[lost_row], coeff, sources[helper_row])
    for row, expected in naive.items():
        assert np.array_equal(out[row], expected)
    assert (out[7] == 0x55).all()  # rows no entry names are left alone
    assert np.array_equal(out[2], sources[1]) and out[2] is not sources[1]


def test_combine_without_entries_is_a_noop():
    out = [np.full(4, 7, dtype=np.uint8)]
    combine(out, [], [])
    assert (out[0] == 7).all()


def test_shape_mismatch_raises(buf):
    with pytest.raises(GaloisError):
        xor_into(buf, buf[:-1])
    with pytest.raises(GaloisError):
        addmul(buf, 2, buf[:-1])
    with pytest.raises(GaloisError):
        addmul(buf.reshape(1, -1), 2, buf)


def test_wrong_dtype_rejected():
    bad = np.zeros(4, dtype=np.int32)
    good = np.zeros(4, dtype=np.uint8)
    with pytest.raises(GaloisError):
        scale(2, bad)
    with pytest.raises(GaloisError):
        addmul(good, 2, bad)
    with pytest.raises(GaloisError):
        addmul(bad, 2, good)
    with pytest.raises(GaloisError):
        addmul(good, 2, bytes(4))
    with pytest.raises(GaloisError):
        combine([good], [bad], [(0, 0, 2)])
    with pytest.raises(GaloisError):
        combine([bad], [good], [(0, 0, 2)])


def test_bad_coefficient_rejected(buf):
    with pytest.raises(GaloisError):
        scale(256, buf)
    with pytest.raises(GaloisError):
        addmul(buf.copy(), -1, buf)
    untouched = buf.copy()
    with pytest.raises(GaloisError):
        combine([untouched], [buf], [(0, 0, 5), (0, 0, 256)])
    assert np.array_equal(untouched, buf)  # validated before any write
