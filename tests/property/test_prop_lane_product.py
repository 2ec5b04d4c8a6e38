"""Property-based tests: packed-lane products.

``GFMatrix.mul_buffer`` and ``combine`` compute groups of multiply rows
with one packed table lookup per source byte and the rest one row a
lookup, in one walk (``galois.vector.plan``); every table kind must equal
the per-entry ``GF_MUL`` definition of the product, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.registry import make_code
from repro.galois.tables import GF_MUL
from repro.galois.vector import BLOCK, LANES, PAIR_MIN, combine, plan, table_width
from repro.linalg.matrix import GFMatrix


def reference_product(matrix: np.ndarray, buffers: np.ndarray) -> np.ndarray:
    """``out[i] = XOR_j matrix[i, j] * buffers[j]``, one entry at a time."""
    out = np.zeros((matrix.shape[0], buffers.shape[1]), np.uint8)
    for i, row in enumerate(matrix):
        for j, coeff in enumerate(row):
            out[i] ^= GF_MUL[coeff][buffers[j]]
    return out


coefficient = st.one_of(st.just(0), st.just(1), st.integers(0, 255))


@st.composite
def matrix_rows(draw, cols):
    """One row: zero, unit, XOR-only, or a multiply row (which may hold 0s
    and 1s beside its coefficients >= 2)."""
    kind = draw(st.sampled_from(["zero", "unit", "xor", "dense", "dense"]))
    row = np.zeros(cols, np.uint8)
    if kind == "unit":
        row[draw(st.integers(0, cols - 1))] = 1
    elif kind == "xor":
        row[:] = draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols))
    elif kind == "dense":
        row[:] = draw(st.lists(coefficient, min_size=cols, max_size=cols))
        row[draw(st.integers(0, cols - 1))] = draw(st.integers(2, 255))
    return row


@st.composite
def gf_matrices(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    return np.stack([draw(matrix_rows(cols)) for _ in range(rows)])


#: Lengths around every edge the kernels have: empty, one byte, odd, the
#: walk's step, the pair-table threshold and the two-share split.
edge_lengths = st.sampled_from(
    [0, 1, 2, 3, 7, 255, 1023, PAIR_MIN - 1, PAIR_MIN, PAIR_MIN + 1, 4 * BLOCK + 1]
    + [BLOCK + d for d in (-1, 0, 1, BLOCK + 1)]
)


def stack_of(data, cols, length, layout):
    """A ``(cols, length)`` uint8 stack: contiguous, strided or transposed."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if layout == "contiguous":
        return rng.integers(0, 256, (cols, length), dtype=np.uint8)
    if layout == "strided":
        return rng.integers(0, 256, (2 * cols, 2 * length + 1), dtype=np.uint8)[
            ::2, 1::2
        ]
    return rng.integers(0, 256, (length, cols), dtype=np.uint8).T


@given(gf_matrices(), st.one_of(st.integers(0, 300), edge_lengths),
       st.sampled_from(["contiguous", "strided", "transposed"]), st.data())
@settings(max_examples=120, deadline=None)
def test_mul_buffer_matches_reference(matrix, length, layout, data):
    buffers = stack_of(data, matrix.shape[1], length, layout)
    out = GFMatrix(matrix).mul_buffer(buffers)
    assert out.shape == (matrix.shape[0], length)
    assert np.array_equal(out, reference_product(matrix, buffers))


@pytest.mark.parametrize("dense_rows", [3, LANES // 2 + 1, LANES, LANES + 3])
@pytest.mark.parametrize("length", [4097, PAIR_MIN + 1])
def test_many_multiply_rows_match_reference(dense_rows, length):
    """More than one ``uint32`` group (> 4 rows) and more than one
    ``uint64`` group (> 8 rows), with 0 and 1 inside the rows."""
    rng = np.random.default_rng(dense_rows * length)
    matrix = rng.integers(0, 256, (dense_rows, 7), dtype=np.uint8)
    matrix[:, 0] = 1
    matrix[0, 1] = 0
    buffers = rng.integers(0, 256, (7, length), dtype=np.uint8)
    out = GFMatrix(matrix).mul_buffer(buffers)
    assert np.array_equal(out, reference_product(matrix, buffers))


SPECS = ["rs(6,3)", "crs(5,3)", "lrc(6,2,2)", "rotrs(6,3)", "evenodd(5)",
         "rdp(5)", "rep(3)"]


def test_specs_cover_every_family():
    from repro.codes.registry import available_codes

    assert sorted({spec.split("(")[0] for spec in SPECS}) == available_codes()


@pytest.mark.parametrize("spec", SPECS)
@given(length=st.sampled_from([4, 12, 4096, PAIR_MIN + 4]), data=st.data())
@settings(max_examples=8, deadline=None)
def test_encode_then_decode_every_family(spec, length, data):
    code = make_code(spec)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, 256, (code.k, length * code.rows), dtype=np.uint8)
    encoded = code.encode(stack)
    generator = getattr(code, "generator", None) or getattr(
        code, "sub_generator", None
    )
    if generator is not None:
        subs = stack.reshape(code.k * code.rows, length)
        expected = reference_product(generator.data, subs)
        assert np.array_equal(encoded.reshape(expected.shape), expected)
    survivors = data.draw(st.permutations(list(range(code.n))))[: code.k]
    if code.is_recoverable(survivors):
        available = {i: encoded[i] for i in survivors}
        assert np.array_equal(code.decode_data(available), stack)


def test_concurrent_first_use_of_one_matrix():
    """Threads racing to build one matrix's plan, each product large enough
    to split into pool shares, all get the reference bytes."""
    import sys
    import threading

    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 256, (5, 6), dtype=np.uint8)
    shared = GFMatrix(matrix)
    stacks = [rng.integers(0, 256, (6, 4 * BLOCK + 3), dtype=np.uint8) for _ in range(4)]
    results = [None] * len(stacks)

    def work(k):
        results[k] = shared.mul_buffer(stacks[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(stacks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for stack, out in zip(stacks, results):
        assert np.array_equal(out, reference_product(matrix, stack))


def reference_combine(out_keys, sources, entries):
    """``out[o] = XOR coeff * sources[s]``, one entry at a time."""
    out = {o: np.zeros_like(sources[0]) for o in out_keys}
    for o, s, coeff in entries:
        out[o] ^= GF_MUL[coeff][sources[s]]
    return out


@st.composite
def shared_source_entries(draw):
    """Several rows over a few shared sources, mostly real multiplies, so
    ``combine`` packs some of them (and keeps 0s, 1s and repeats)."""
    n_sources = draw(st.integers(1, 5))
    n_rows = draw(st.integers(2, LANES + 3))
    entries = []
    for o in range(n_rows):
        for s in draw(st.lists(st.integers(0, n_sources - 1), min_size=1, max_size=6)):
            entries.append((o, s, draw(st.one_of(st.integers(2, 255), coefficient))))
    return n_sources, n_rows, entries


def laid_out(rng, count, length, layout):
    """``count`` uint8 buffers of ``length`` bytes: contiguous, strided or
    2-D (two rows, one of them a column slice)."""
    if layout == "contiguous":
        return [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(count)]
    if layout == "strided":
        return [rng.integers(0, 256, 2 * length, dtype=np.uint8)[1::2] for _ in range(count)]
    half = -(-length // 2)
    return [rng.integers(0, 256, (2, half + 1), dtype=np.uint8)[:, 1:] for _ in range(count)]


@given(shared_source_entries(),
       st.sampled_from([1, 7, 4097, PAIR_MIN - 1, PAIR_MIN + 5, BLOCK + 3]),
       st.sampled_from(["contiguous", "strided", "2-D"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_combine_rows_sharing_sources_match_reference(drawn, length, layout, seed):
    n_sources, n_rows, entries = drawn
    rng = np.random.default_rng(seed)
    sources = laid_out(rng, n_sources, length, layout)
    out = laid_out(rng, n_rows, length, layout)  # stale bytes must not leak
    combine(out, sources, entries)
    expected = reference_combine(range(n_rows), sources, entries)
    for o in range(n_rows):
        assert np.array_equal(out[o], expected[o])


@pytest.mark.parametrize("length", [4097, PAIR_MIN + 1])
def test_combine_packs_rows_that_share_sources(length):
    """Four rows over three sources take one packed lookup a source byte
    in both length classes, and still give the reference bytes."""
    entries = [(o, s, 2 + 17 * o + 5 * s) for o in range(4) for s in range(3)]
    assert plan(entries, table_width(length)).groups
    rng = np.random.default_rng(length)
    out = [np.empty(length, np.uint8) for _ in range(4)]
    for _ in range(2):  # the second call meets the first one's scratch
        sources = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(3)]
        combine(out, sources, entries)
        expected = reference_combine(range(4), sources, entries)
        assert all(np.array_equal(out[o], expected[o]) for o in range(4))
