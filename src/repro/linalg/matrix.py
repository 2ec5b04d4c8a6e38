"""Dense matrices over GF(2^8).

Backed by numpy uint8 arrays.  The matrix algebra (products, inversion,
rank) gathers the GF multiplication table row-wise, which is fast enough
for the small matrices erasure coding needs (k+m <= 255); the bulk
matrix-buffer product runs on the kernels of :mod:`repro.galois.vector`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.errors import GaloisError, SingularMatrixError
from repro.galois.field import gf256
from repro.galois.tables import GF_MUL
from repro.galois.vector import Plan, plan, table_width


class GFMatrix:
    """An immutable matrix over GF(2^8).

    The underlying array is exposed read-only via :attr:`data`
    (operations always allocate fresh results), so the product plans
    :meth:`mul_buffer` builds on first use never go stale.
    """

    __slots__ = ("_data", "_plans")

    def __init__(self, data: "np.ndarray | Sequence[Sequence[int]]"):
        array = np.asarray(data)
        if array.ndim != 2:
            raise GaloisError(f"matrix must be 2-D, got shape {array.shape}")
        if array.dtype != np.uint8:
            if array.size and (array.min() < 0 or array.max() > 255):
                raise GaloisError("matrix entries must be in [0, 256)")
            array = array.astype(np.uint8)
        if isinstance(data, np.ndarray) and np.may_share_memory(array, data):
            array = array.copy()
        array.setflags(write=False)
        self._data = array
        self._plans: "Dict[int, Plan]" = {}

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
        # Row i of the product combines the right-hand rows by row i.
        return GFMatrix(self.mul_buffer(other._data))

    def mul_buffer(self, buffers: np.ndarray) -> np.ndarray:
        """Multiply this matrix by a stack of byte buffers.

        ``buffers`` has shape ``(cols, nbytes)``; the result has shape
        ``(rows, nbytes)``.  This is the bulk encode/decode operation, run
        by :func:`repro.galois.vector.plan`'s walker on a plan built once
        per matrix and table width.
        """
        if buffers.ndim != 2 or buffers.shape[0] != self.cols:
            raise GaloisError(
                f"mul_buffer: expected ({self.cols}, n) buffer stack, "
                f"got {buffers.shape}"
            )
        if buffers.dtype != np.uint8:
            raise GaloisError("mul_buffer: buffers must be uint8")
        width = table_width(buffers.shape[1])
        product = self._plans.get(width)
        if product is None:
            rows = self._data.tolist()  # with no columns, each row a zero row
            entries = [(i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row or [0])]
            product = self._plans[width] = plan(entries, width)
        out = np.empty((self.rows, buffers.shape[1]), dtype=np.uint8)
        product.apply([out[i] for i in product.outs], [buffers[j] for j in product.sources])
        return out

    # ------------------------------------------------------------------
    # Gaussian elimination
    # ------------------------------------------------------------------
    def inverse(self) -> "GFMatrix":
        """Matrix inverse via Gauss-Jordan; raises SingularMatrixError."""
        if self.rows != self.cols:
            raise GaloisError("only square matrices can be inverted")
        n = self.rows
        work = np.hstack([self._data, np.eye(n, dtype=np.uint8)])
        rank = _reduce(work, n)
        if rank < n:
            raise SingularMatrixError(f"matrix is singular (rank {rank} < {n})")
        return GFMatrix(work[:, n:])

    def rank(self) -> int:
        """Rank via row echelon reduction."""
        return _reduce(self._data.copy(), self.cols)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def independent_rows(self, candidates: Sequence[int], need: int) -> "List[int] | None":
        """The first ``need`` of the ``candidates`` row indices, taken in
        order, each independent of those taken before it; None if fewer."""
        chosen: List[int] = []
        for row in candidates:
            if self.take_rows(chosen + [row]).rank() > len(chosen):
                chosen.append(row)
                if len(chosen) == need:
                    return chosen
        return None


def _reduce(work: np.ndarray, cols: int) -> int:
    """Reduce the first ``cols`` columns of ``work`` to reduced row echelon
    form in place, applying each row operation to the whole row; returns
    the rank of those columns."""
    rank = 0
    for col in range(cols):
        below = np.flatnonzero(work[rank:, col])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        if work[rank, col] != 1:
            work[rank] = GF_MUL[gf256.inv(int(work[rank, col]))][work[rank]]
        for r in np.flatnonzero(work[:, col]):
            if r != rank:
                work[r] ^= GF_MUL[work[r, col]][work[rank]]
        rank += 1
        if rank == len(work):
            break
    return rank
