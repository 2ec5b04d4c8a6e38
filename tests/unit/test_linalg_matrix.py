"""GF(2^8) matrix operations."""

import numpy as np
import pytest

from repro.errors import GaloisError, SingularMatrixError
from repro.galois.field import gf256
from repro.galois.tables import GF_MUL
from repro.linalg.matrix import GFMatrix


def random_invertible(rng, n):
    """Rejection-sample an invertible matrix."""
    while True:
        m = GFMatrix(rng.integers(0, 256, size=(n, n), dtype=np.uint8))
        if m.is_invertible():
            return m


def test_identity_multiplication(rng):
    a = GFMatrix(rng.integers(0, 256, size=(4, 4), dtype=np.uint8))
    assert a.mul(GFMatrix.identity(4)) == a
    assert GFMatrix.identity(4).mul(a) == a


def test_mul_matches_scalar_reference(rng):
    a = GFMatrix(rng.integers(0, 256, size=(3, 4), dtype=np.uint8))
    b = GFMatrix(rng.integers(0, 256, size=(4, 2), dtype=np.uint8))
    product = a.mul(b)
    for i in range(3):
        for j in range(2):
            acc = 0
            for t in range(4):
                acc ^= gf256.mul(int(a.data[i, t]), int(b.data[t, j]))
            assert int(product.data[i, j]) == acc


def test_mul_dimension_mismatch():
    a = GFMatrix.zeros(2, 3)
    b = GFMatrix.zeros(2, 3)
    with pytest.raises(GaloisError):
        a.mul(b)


def test_addition_is_xor(rng):
    a = GFMatrix(rng.integers(0, 256, size=(3, 3), dtype=np.uint8))
    b = GFMatrix(rng.integers(0, 256, size=(3, 3), dtype=np.uint8))
    assert np.array_equal((a + b).data, a.data ^ b.data)


def test_inverse_roundtrip(rng):
    for n in [1, 2, 5, 8]:
        m = random_invertible(rng, n)
        assert m.mul(m.inverse()) == GFMatrix.identity(n)
        assert m.inverse().mul(m) == GFMatrix.identity(n)


def test_singular_matrix_raises():
    singular = GFMatrix([[1, 2], [1, 2]])
    with pytest.raises(SingularMatrixError):
        singular.inverse()


def test_inverse_requires_square():
    with pytest.raises(GaloisError):
        GFMatrix.zeros(2, 3).inverse()


def test_rank():
    assert GFMatrix.identity(4).rank() == 4
    assert GFMatrix.zeros(3, 3).rank() == 0
    assert GFMatrix([[1, 2], [2, 4], [3, 6]]).rank() == 1  # rows are multiples
    assert GFMatrix([[1, 0], [0, 1], [1, 1]]).rank() == 2


def test_take_rows(rng):
    m = GFMatrix(rng.integers(0, 256, size=(5, 3), dtype=np.uint8))
    sub = m.take_rows([4, 0])
    assert np.array_equal(sub.data[0], m.data[4])
    assert np.array_equal(sub.data[1], m.data[0])


def test_mul_buffer_matches_matrix_product(rng):
    m = GFMatrix(rng.integers(0, 256, size=(4, 3), dtype=np.uint8))
    buffers = rng.integers(0, 256, size=(3, 100), dtype=np.uint8)
    out = m.mul_buffer(buffers)
    # Column 7 of the buffers behaves like a vector multiply.
    col = GFMatrix(buffers[:, 7:8])
    assert np.array_equal(out[:, 7], m.mul(col).data[:, 0])


def test_mul_buffer_zero_rows_are_zero(rng):
    m = GFMatrix([[0, 0, 0], [1, 0, 9], [0, 0, 0]])
    buffers = rng.integers(1, 256, size=(3, 4096), dtype=np.uint8)
    for _ in range(3):  # reused allocations must not leak stale bytes
        out = m.mul_buffer(buffers)
        assert not out[0].any() and not out[2].any()
        assert np.array_equal(out[1], buffers[0] ^ GF_MUL[9][buffers[2]])


def test_mul_buffer_shape_checks(rng):
    m = GFMatrix.identity(3)
    with pytest.raises(GaloisError):
        m.mul_buffer(np.zeros((4, 10), dtype=np.uint8))
    with pytest.raises(GaloisError):
        m.mul_buffer(np.zeros((3, 10), dtype=np.int64))


def test_solve(rng):
    m = random_invertible(rng, 4)
    x = rng.integers(0, 256, size=(4, 20), dtype=np.uint8)
    rhs = m.mul_buffer(x)
    assert np.array_equal(m.solve(rhs), x)


def test_entries_out_of_range_rejected():
    with pytest.raises(GaloisError):
        GFMatrix([[300]])


def test_hash_and_eq(rng):
    a = GFMatrix(rng.integers(0, 256, size=(2, 2), dtype=np.uint8))
    b = GFMatrix(a.data.copy())
    assert a == b and hash(a) == hash(b)
    assert a != GFMatrix.zeros(2, 2) or not a.data.any()
