"""Dense matrices over GF(2^8).

Backed by numpy uint8 arrays.  The matrix algebra (products, inversion,
rank) gathers the GF multiplication table row-wise, which is fast enough
for the small matrices erasure coding needs (k+m <= 255); the bulk
matrix-buffer product runs on :func:`repro.galois.vector.combine`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GaloisError, SingularMatrixError
from repro.galois.field import gf256
from repro.galois.tables import GF_MUL
from repro.galois.vector import combine


class GFMatrix:
    """An immutable-by-convention matrix over GF(2^8).

    The underlying array is exposed via :attr:`data`; callers must not
    mutate it (operations always allocate fresh results).
    """

    __slots__ = ("_data",)

    def __init__(self, data: "np.ndarray | Sequence[Sequence[int]]"):
        array = np.asarray(data)
        if array.ndim != 2:
            raise GaloisError(f"matrix must be 2-D, got shape {array.shape}")
        if array.dtype != np.uint8:
            if array.size and (array.min() < 0 or array.max() > 255):
                raise GaloisError("matrix entries must be in [0, 256)")
            array = array.astype(np.uint8)
        self._data = array

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "GFMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GFMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "GFMatrix":
        return cls(np.array(list(rows), dtype=np.uint8))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> "tuple[int, int]":
        return self._data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    def row(self, index: int) -> np.ndarray:
        """A copy of row ``index``."""
        return self._data[index].copy()

    def take_rows(self, indices: Sequence[int]) -> "GFMatrix":
        """A new matrix made of the given rows, in the given order."""
        return GFMatrix(self._data[list(indices)].copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"GFMatrix({self._data.tolist()!r})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        if self.shape != other.shape:
            raise GaloisError("matrix addition: shape mismatch")
        return GFMatrix(np.bitwise_xor(self._data, other._data))

    # Characteristic 2.
    __sub__ = __add__

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        return self.mul(other)

    def mul(self, other: "GFMatrix") -> "GFMatrix":
        """Matrix product over GF(2^8)."""
        if self.cols != other.rows:
            raise GaloisError(
                f"matrix product: inner dims differ ({self.cols} vs {other.rows})"
            )
        left, right = self._data, other._data
        out = np.zeros((self.rows, other.cols), dtype=np.uint8)
        # Accumulate rank-1 contributions column-of-left x row-of-right;
        # each uses one table gather over the right-hand row block.
        for inner in range(self.cols):
            col = left[:, inner]
            rrow = right[inner]
            if not rrow.any() or not col.any():
                continue
            # products[i, j] = col[i] * rrow[j]
            products = GF_MUL[col][:, rrow]
            np.bitwise_xor(out, products, out=out)
        return GFMatrix(out)

    def mul_buffer(self, buffers: np.ndarray) -> np.ndarray:
        """Multiply this matrix by a stack of byte buffers.

        ``buffers`` has shape ``(cols, nbytes)``; the result has shape
        ``(rows, nbytes)``.  This is the bulk encode/decode operation.
        """
        if buffers.ndim != 2 or buffers.shape[0] != self.cols:
            raise GaloisError(
                f"mul_buffer: expected ({self.cols}, n) buffer stack, "
                f"got {buffers.shape}"
            )
        if buffers.dtype != np.uint8:
            raise GaloisError("mul_buffer: buffers must be uint8")
        # combine writes every row some entry names; only all-zero matrix
        # rows need clearing.
        out = np.empty((self.rows, buffers.shape[1]), dtype=np.uint8)
        out[~self._data.any(axis=1)] = 0
        combine(
            out,
            buffers,
            [
                (i, j, int(self._data[i, j]))
                for i, j in np.argwhere(self._data).tolist()
            ],
        )
        return out

    # ------------------------------------------------------------------
    # Gaussian elimination
    # ------------------------------------------------------------------
    def inverse(self) -> "GFMatrix":
        """Matrix inverse via Gauss-Jordan; raises SingularMatrixError."""
        if self.rows != self.cols:
            raise GaloisError("only square matrices can be inverted")
        n = self.rows
        work = self._data.astype(np.uint8).copy()
        inv = np.eye(n, dtype=np.uint8)
        for col in range(n):
            pivot = -1
            for r in range(col, n):
                if work[r, col]:
                    pivot = r
                    break
            if pivot < 0:
                raise SingularMatrixError(
                    f"matrix is singular (no pivot in column {col})"
                )
            if pivot != col:
                work[[col, pivot]] = work[[pivot, col]]
                inv[[col, pivot]] = inv[[pivot, col]]
            pivot_inv = gf256.inv(int(work[col, col]))
            if pivot_inv != 1:
                work[col] = GF_MUL[pivot_inv][work[col]]
                inv[col] = GF_MUL[pivot_inv][inv[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = int(work[r, col])
                if factor == 0:
                    continue
                work[r] ^= GF_MUL[factor][work[col]]
                inv[r] ^= GF_MUL[factor][inv[col]]
        return GFMatrix(inv)

    def rank(self) -> int:
        """Rank via row echelon reduction."""
        work = self._data.astype(np.uint8).copy()
        rows, cols = work.shape
        rank = 0
        for col in range(cols):
            pivot = -1
            for r in range(rank, rows):
                if work[r, col]:
                    pivot = r
                    break
            if pivot < 0:
                continue
            if pivot != rank:
                work[[rank, pivot]] = work[[pivot, rank]]
            pivot_inv = gf256.inv(int(work[rank, col]))
            if pivot_inv != 1:
                work[rank] = GF_MUL[pivot_inv][work[rank]]
            for r in range(rows):
                if r == rank:
                    continue
                factor = int(work[r, col])
                if factor:
                    work[r] ^= GF_MUL[factor][work[rank]]
            rank += 1
            if rank == rows:
                break
        return rank

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a stack of byte buffers.

        ``rhs`` has shape ``(rows, nbytes)``.  Uses the explicit inverse,
        which erasure decoding wants anyway (the inverse rows *are* the
        decoding coefficients).
        """
        return self.inverse().mul_buffer(rhs)
