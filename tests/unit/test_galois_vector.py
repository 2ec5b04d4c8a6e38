"""Vectorized GF kernels against scalar and table-gather references."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import GaloisError
from repro.galois import vector
from repro.galois.field import gf256
from repro.galois.tables import GF_MUL
from repro.galois.vector import (
    BLOCK,
    MIN_BLOCKS_PER_WORKER,
    PAIR_MIN,
    TABLE_CACHE,
    addmul,
    combine,
    scale,
    xor_into,
)

#: Block edges, and half-block edges (where a block would end at half the size).
BLOCK_EDGE_LENGTHS = [0, 1] + [
    edge + delta
    for edge in (BLOCK // 2, BLOCK)
    for delta in (-1, 0, 1)
] + [3 * BLOCK // 2 + 7, 3 * BLOCK + 7]


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


def test_every_pair_table_entry_matches_byte_table():
    """Pair-table lookups (long buffers) cover every byte pair, both orders."""
    every_pair = np.arange(65536, dtype=np.uint16).view(np.uint8)
    assert every_pair.size >= PAIR_MIN
    for coeff in range(256):
        assert np.array_equal(scale(coeff, every_pair), GF_MUL[coeff][every_pair])


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


# ----------------------------------------------------------------------
# The block-parallel walk
# ----------------------------------------------------------------------
@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"workers={n}")
def workers(request, monkeypatch):
    """Split parallel-sized calls over ``n`` pool workers on any host."""
    monkeypatch.setattr(vector, "_WORKERS", request.param)
    monkeypatch.setattr(vector, "_pool", None)
    yield request.param
    if vector._pool is not None:
        vector._pool.shutdown()


def share_edge_lengths(workers):
    """Lengths whose shares end on, before and after a block edge."""
    least = MIN_BLOCKS_PER_WORKER * workers
    return [
        blocks * BLOCK + delta
        for blocks in (least, least + 1, 2 * least + 1)
        for delta in (-1, 0, 1)
    ]


def test_walk_splits_into_contiguous_shares(workers, monkeypatch):
    seen = []
    walk = vector._walk

    def spy(*args):
        seen.append((args[-2], args[-1], threading.get_ident()))
        walk(*args)

    monkeypatch.setattr(vector, "_walk", spy)
    length = MIN_BLOCKS_PER_WORKER * workers * BLOCK + 3
    scale(3, np.zeros(length, dtype=np.uint8))
    spans = sorted((start, stop) for start, stop, _ in seen)
    assert len(spans) == workers + 1
    assert spans[0][0] == 0 and spans[-1][1] == length
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all(start % BLOCK == 0 for start, _ in spans)
    # The caller runs the first share, the pool the rest.
    assert [t == threading.get_ident() for s, _, t in seen if s == 0] == [True]
    seen.clear()
    scale(3, np.zeros((MIN_BLOCKS_PER_WORKER - 1) * BLOCK, dtype=np.uint8))
    assert len(seen) == 1  # too small to split: inline


def test_parallel_walk_matches_gather_at_share_edges(workers, rng):
    for length in share_edge_lengths(workers):
        src = rng.integers(0, 256, size=length, dtype=np.uint8)
        other = rng.integers(0, 256, size=length, dtype=np.uint8)
        before = rng.integers(0, 256, size=length, dtype=np.uint8)
        for coeff in (1, 2, 87):
            assert np.array_equal(scale(coeff, src), GF_MUL[coeff][src])
            dst = before.copy()
            addmul(dst, coeff, src)
            assert np.array_equal(dst, before ^ GF_MUL[coeff][src])
        out = [before.copy(), before.copy()]
        combine(out, [src, other], [(0, 0, 9), (0, 1, 1), (1, 1, 200)])
        assert np.array_equal(out[0], GF_MUL[9][src] ^ other)
        assert np.array_equal(out[1], GF_MUL[200][other])


def test_parallel_walk_odd_address_and_read_only_sources(workers, rng):
    length = 2 * MIN_BLOCKS_PER_WORKER * workers * BLOCK + 1
    raw = rng.integers(0, 256, size=length + 1, dtype=np.uint8)
    for src in (raw[1:], np.frombuffer(raw.tobytes(), dtype=np.uint8)[1:]):
        assert src.ctypes.data % 2 == 1
        dst = np.zeros(src.size, dtype=np.uint8)
        addmul(dst, 29, src)
        assert np.array_equal(dst, GF_MUL[29][src])
        out = np.empty(length + 1, dtype=np.uint8)[1:]  # odd-address output
        combine([out], [src], [(0, 0, 29)])
        assert np.array_equal(out, dst)


def test_parallel_walk_strided_and_two_dimensional(workers, rng):
    rows = 2 * MIN_BLOCKS_PER_WORKER * workers + 1
    wide_src = rng.integers(0, 256, size=(rows, BLOCK + 6), dtype=np.uint8)
    before = rng.integers(0, 256, size=wide_src.shape, dtype=np.uint8)
    dst = before.copy()
    addmul(dst, 201, wide_src)
    assert np.array_equal(dst, before ^ GF_MUL[201][wide_src])
    dst = before.copy()
    addmul(dst[:, 1::2], 201, wide_src[:, ::2])
    assert np.array_equal(dst[:, 1::2], before[:, 1::2] ^ GF_MUL[201][wide_src[:, ::2]])
    assert np.array_equal(dst[:, ::2], before[:, ::2])  # gaps untouched
    flat = wide_src.reshape(-1)[::3]
    assert np.array_equal(scale(113, flat), GF_MUL[113][flat])


def test_parallel_addmul_onto_itself(workers, rng):
    original = rng.integers(
        0, 256, size=MIN_BLOCKS_PER_WORKER * workers * BLOCK + 9, dtype=np.uint8
    )
    for coeff in (1, 2, 140):
        aliased = original.copy()
        addmul(aliased, coeff, aliased)
        assert np.array_equal(aliased, GF_MUL[coeff ^ 1][original])


def test_concurrent_callers_on_distinct_buffers(workers):
    length = 2 * MIN_BLOCKS_PER_WORKER * workers * BLOCK + 5
    failures = []

    def caller(seed):
        local = np.random.default_rng(seed)
        src = local.integers(0, 256, size=(2, length), dtype=np.uint8)
        for round_ in range(4):
            coeff = int(local.integers(2, 256))
            out = np.empty((2, length), dtype=np.uint8)
            combine(out, src, [(0, 0, coeff), (0, 1, 1), (1, 1, round_)])
            if not (
                np.array_equal(out[0], GF_MUL[coeff][src[0]] ^ src[1])
                and np.array_equal(out[1], GF_MUL[round_][src[1]])
            ):
                failures.append(seed)

    threads = [threading.Thread(target=caller, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the callers' Python code too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_pair_table_cache_is_bounded(rng):
    src = rng.integers(0, 256, size=PAIR_MIN + 1, dtype=np.uint8)
    for coeff in range(256):
        assert np.array_equal(scale(coeff, src), GF_MUL[coeff][src])
        assert vector._pair_table.cache_info().currsize <= TABLE_CACHE
    assert TABLE_CACHE == 32


def test_short_buffers_build_no_pair_table(rng):
    vector._pair_table.cache_clear()
    short = rng.integers(0, 256, size=PAIR_MIN - 1, dtype=np.uint8)
    assert np.array_equal(scale(99, short), GF_MUL[99][short])
    assert vector._pair_table.cache_info().currsize == 0
    scale(99, rng.integers(0, 256, size=PAIR_MIN, dtype=np.uint8))
    assert vector._pair_table.cache_info().currsize == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_parallel_sized_combine(monkeypatch, rng):
    monkeypatch.setattr(vector, "_WORKERS", 1)
    src = rng.integers(0, 256, size=4 * BLOCK + 1, dtype=np.uint8)
    expected = GF_MUL[87][src]
    assert np.array_equal(scale(87, src), expected)  # the parent's pool is up
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its status
        try:
            os._exit(0 if np.array_equal(scale(87, src), expected) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung in combine")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
