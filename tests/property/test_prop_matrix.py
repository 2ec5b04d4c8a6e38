"""Property-based tests: GF matrices and span solving."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SingularMatrixError
from repro.linalg.matrix import GFMatrix
from repro.linalg.span import express_in_span


def gf_matrix(rows, cols):
    return arrays(np.uint8, (rows, cols)).map(GFMatrix)


square = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: gf_matrix(n, n)
)


@given(square)
@settings(max_examples=60)
def test_inverse_roundtrip_or_singular(m):
    try:
        inv = m.inverse()
    except SingularMatrixError:
        assert m.rank() < m.rows
        return
    assert m.mul(inv) == GFMatrix.identity(m.rows)
    assert m.rank() == m.rows


@given(square)
@settings(max_examples=60)
def test_rank_bounded(m):
    assert 0 <= m.rank() <= m.rows


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(gf_matrix(n, n), gf_matrix(n, n))
))
@settings(max_examples=40)
def test_addition_commutes(pair):
    a, b = pair
    assert a + b == b + a


@given(st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        gf_matrix(n, n),
        arrays(np.uint8, (n, 16)),
    )
))
@settings(max_examples=40)
def test_solve_inverts_mul_buffer(pair):
    m, data = pair
    assume(m.is_invertible())
    rhs = m.mul_buffer(data)
    assert np.array_equal(m.inverse().mul_buffer(rhs), data)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=60)
def test_express_in_span_roundtrip(width, count, data):
    rows = [
        data.draw(arrays(np.uint8, (width,))) for _ in range(count)
    ]
    coeffs = [data.draw(st.integers(0, 255)) for _ in range(count)]
    from repro.galois.vector import addmul

    target = np.zeros(width, dtype=np.uint8)
    for c, r in zip(coeffs, rows):
        addmul(target, c, r)
    combo = express_in_span(rows, list(range(count)), target)
    assert combo is not None
    rebuilt = np.zeros(width, dtype=np.uint8)
    for idx, c in combo.items():
        addmul(rebuilt, c, rows[idx])
    assert np.array_equal(rebuilt, target)
