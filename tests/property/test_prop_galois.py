"""Property-based tests: GF(2^8) field axioms and the bulk kernels."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.galois import vector
from repro.galois.field import gf256
from repro.galois.tables import GF_MUL
from repro.galois.vector import BLOCK, addmul, combine, scale, xor_into

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)
buffers = st.binary(min_size=1, max_size=512).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)
#: Lengths straddling the kernel's block edges (``st.binary`` is too slow
#: at these sizes; the bytes come from a drawn numpy seed instead).
block_edge_lengths = st.builds(
    lambda blocks, delta: max(0, blocks * BLOCK + delta),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-3, max_value=9),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(elements, elements)
def test_addition_commutative(a, b):
    assert gf256.add(a, b) == gf256.add(b, a)


@given(elements, elements, elements)
def test_addition_associative(a, b, c):
    assert gf256.add(gf256.add(a, b), c) == gf256.add(a, gf256.add(b, c))


@given(elements)
def test_additive_inverse_is_self(a):
    assert gf256.add(a, a) == 0


@given(elements, elements)
def test_multiplication_commutative(a, b):
    assert gf256.mul(a, b) == gf256.mul(b, a)


@given(elements, elements, elements)
def test_multiplication_associative(a, b, c):
    assert gf256.mul(gf256.mul(a, b), c) == gf256.mul(a, gf256.mul(b, c))


@given(elements, elements, elements)
def test_distributive(a, b, c):
    assert gf256.mul(a, gf256.add(b, c)) == gf256.add(
        gf256.mul(a, b), gf256.mul(a, c)
    )


@given(nonzero, nonzero)
def test_product_of_nonzero_is_nonzero(a, b):
    assert gf256.mul(a, b) != 0


@given(nonzero)
def test_inverse_cancels(a):
    assert gf256.mul(a, gf256.inv(a)) == 1


@given(elements, nonzero)
def test_div_then_mul_roundtrips(a, b):
    assert gf256.mul(gf256.div(a, b), b) == a


@given(nonzero, st.integers(min_value=-300, max_value=300))
def test_pow_additive_in_exponent(a, e):
    assert gf256.mul(gf256.pow(a, e), gf256.pow(a, 1)) == gf256.pow(a, e + 1)


@given(elements, buffers)
@settings(max_examples=50)
def test_scale_matches_scalar_everywhere(coeff, buf):
    out = scale(coeff, buf)
    for i in range(0, buf.size, max(1, buf.size // 7)):
        assert int(out[i]) == gf256.mul(coeff, int(buf[i]))


@given(elements, elements, buffers)
@settings(max_examples=50)
def test_scale_is_multiplicative(a, b, buf):
    assert np.array_equal(scale(a, scale(b, buf)), scale(gf256.mul(a, b), buf))


@given(buffers)
@settings(max_examples=50)
def test_xor_into_self_is_zero(buf):
    dst = buf.copy()
    xor_into(dst, buf)
    assert not dst.any()


@given(elements, elements, buffers)
@settings(max_examples=50)
def test_addmul_distributes_over_coefficients(a, b, buf):
    """(a ^ b) * buf == a*buf ^ b*buf."""
    left = np.zeros_like(buf)
    addmul(left, a ^ b, buf)
    right = np.zeros_like(buf)
    addmul(right, a, buf)
    addmul(right, b, buf)
    assert np.array_equal(left, right)


@given(elements, block_edge_lengths, seeds)
@settings(max_examples=40, deadline=None)
def test_addmul_matches_table_gather_across_block_edges(coeff, length, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 256, size=length, dtype=np.uint8)
    before = rng.integers(0, 256, size=length, dtype=np.uint8)
    dst = before.copy()
    addmul(dst, coeff, src)
    assert np.array_equal(dst, before ^ GF_MUL[coeff][src])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=4),
            elements,
        ),
        min_size=1,
        max_size=12,
    ),
    st.one_of(st.integers(min_value=0, max_value=300), block_edge_lengths),
    seeds,
)
@settings(max_examples=40, deadline=None)
def test_combine_matches_naive_addmul_loop(entries, length, seed):
    """Any (lost_row, helper_row, coeff) set: rows fed once or many times."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, 256, size=(5, length), dtype=np.uint8)
    out = {row: np.full(length, 0xAA, dtype=np.uint8) for row, _, _ in entries}
    combine(out, sources, entries)
    naive = {row: np.zeros(length, dtype=np.uint8) for row in out}
    for lost_row, helper_row, coeff in entries:
        addmul(naive[lost_row], coeff, sources[helper_row])
    for row in out:
        assert np.array_equal(out[row], naive[row])


@given(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=3),
            elements,
        ),
        min_size=1,
        max_size=6,
    ),
    st.one_of(
        block_edge_lengths.map(lambda n: (n,)),
        st.tuples(
            st.integers(min_value=1, max_value=7),
            st.integers(min_value=0, max_value=BLOCK // 2 + 3),
        ),
    ),
    st.integers(min_value=0, max_value=3),
    seeds,
)
@settings(max_examples=30, deadline=None)
def test_parallel_combine_matches_reference_gather(
    workers, entries, shape, offset, seed
):
    """Any pool size, entries, shape and (odd) start address: a GF_MUL gather."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    backing = rng.integers(0, 256, size=(4, size + offset), dtype=np.uint8)
    sources = [row[offset:].reshape(shape) for row in backing]
    out = {
        row: np.empty(size + offset, dtype=np.uint8)[offset:].reshape(shape)
        for row, _, _ in entries
    }
    with mock.patch.object(vector, "_WORKERS", workers):
        combine(out, sources, entries)
    expected = {row: np.zeros(shape, dtype=np.uint8) for row in out}
    for row, source, coeff in entries:
        expected[row] ^= GF_MUL[coeff][sources[source]]
    for row in out:
        assert np.array_equal(out[row], expected[row])
