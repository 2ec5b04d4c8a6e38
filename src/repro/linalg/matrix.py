"""Dense matrices over GF(2^8).

Backed by numpy uint8 arrays.  The matrix algebra (products, inversion,
rank) gathers the GF multiplication table row-wise, which is fast enough
for the small matrices erasure coding needs (k+m <= 255); the bulk
matrix-buffer product runs on the kernels of :mod:`repro.galois.vector`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.errors import GaloisError, SingularMatrixError
from repro.galois.field import gf256
from repro.galois.tables import GF_MUL
from repro.galois.vector import PAIR_MIN, combine, lane_product, lane_tables

#: Most output rows one packed lookup serves (``uint64`` lanes).
LANES = 8


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
        self._plans: "Dict[bool, tuple]" = {}

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

    def _product_plan(self, pairs: bool) -> tuple:
        """Zero rows, unit rows to copy, ``combine`` entries and
        the groups of up to :data:`LANES` multiply rows packed at this
        length class (``pairs``: from :data:`PAIR_MIN`), each as its rows,
        columns and lane tables.  Built on first use of the class."""
        plan = self._plans.get(pairs)
        if plan is None:
            zeros, copies, entries, dense, packed = [], [], [], [], []
            for i, row in enumerate(self._data.tolist()):
                terms = [(i, j, c) for j, c in enumerate(row) if c]
                if max(row, default=0) > 1:
                    dense.append((i, terms))
                elif len(terms) == 1:
                    copies.extend(terms)
                elif terms:
                    entries.extend(terms)
                else:
                    zeros.append(i)
            for at in range(0, len(dense), LANES):
                group = dense[at : at + LANES]
                rows = [i for i, _ in group]
                cols = np.flatnonzero(self._data[rows].any(axis=0)).tolist()
                block = self._data[np.ix_(rows, cols)]
                # Lookups a source byte, in halves: packed, one a column
                # (1.5 for uint64 lanes); combine, one a multiply, half
                # that on pair tables.  Packing every group instead makes
                # rotated RS's sparse rows 1.2-1.7x slower from PAIR_MIN.
                cost = len(cols) * (2 if len(rows) <= 4 else 3)
                if cost < int((block > 1).sum()) * (1 if pairs else 2):
                    packed.append((rows, cols, lane_tables(block)))
                else:
                    entries.extend(t for _, terms in group for t in terms)
            if entries:  # a unit row copies in the walk that reads its source
                entries, copies = copies + entries, []
            plan = self._plans[pairs] = (zeros, copies, entries, packed)
        return plan

    def mul_buffer(self, buffers: np.ndarray) -> np.ndarray:
        """Multiply this matrix by a stack of byte buffers.

        ``buffers`` has shape ``(cols, nbytes)``; the result has shape
        ``(rows, nbytes)``.  This is the bulk encode/decode operation:
        multiply rows go through :func:`~repro.galois.vector.lane_product`
        where that pays, every other row through ``combine``.
        """
        if buffers.ndim != 2 or buffers.shape[0] != self.cols:
            raise GaloisError(
                f"mul_buffer: expected ({self.cols}, n) buffer stack, "
                f"got {buffers.shape}"
            )
        if buffers.dtype != np.uint8:
            raise GaloisError("mul_buffer: buffers must be uint8")
        zeros, copies, entries, packed = self._product_plan(
            buffers.shape[1] >= PAIR_MIN
        )
        out = np.empty((self.rows, buffers.shape[1]), dtype=np.uint8)
        out[zeros] = 0
        for i, j, _ in copies:
            out[i] = buffers[j]
        combine(out, buffers, entries)
        for rows, cols, tables in packed:
            lane_product(out, buffers, rows, cols, tables)
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
