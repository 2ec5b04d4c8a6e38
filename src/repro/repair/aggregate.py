"""One node's §6.2 aggregation state, without I/O, for sim and live alike.

The simulator's ``PartialAggregationTask`` and the live chunk server's
``_PartialTask`` decide *when* a contribution arrives; :class:`Aggregation`
decides whether it fits, where its bytes go and when a slice may leave.
Rows are cut by :func:`slice_bounds`, repair pipelining's rule (Li et al.,
arXiv 1908.01527); a contribution must cover whole slices exactly, or it
is rejected before a byte is touched.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

import numpy as np

from repro.errors import AggregationError, WireFormatError

#: The contributor id of the node's own helper chunk (never a node id).
LOCAL = None


def slice_bounds(length: int, num_slices: int) -> "List[int]":
    """Byte offsets cutting a ``length``-byte row into ``num_slices``.

    Returns ``num_slices + 1`` monotone offsets starting at 0 and ending
    at ``length``; segment ``i`` is ``[bounds[i], bounds[i+1])``.  Slices
    differ in size by at most one byte, and rows shorter than the slice
    count simply yield empty tail segments — both ends of a stream must
    use this same rule, so it is part of the protocol (docs/PROTOCOL.md).
    """
    if num_slices < 1:
        raise WireFormatError(f"num_slices must be >= 1, got {num_slices}")
    return [length * i // num_slices for i in range(num_slices + 1)]


class Aggregation:
    """XOR accumulation of a node's contributors, slice by slice."""

    def __init__(
        self, rows: int, num_slices: int, children: "Iterable[str]",
        local: bool, row_len: int = 0,
    ):
        self.rows = rows
        self.num_slices = num_slices
        self.contributors: "FrozenSet[Optional[str]]" = frozenset(
            [*children, LOCAL] if local else children
        )
        #: lost_row -> accumulated bytes of the whole row.
        self.partial: "Dict[int, np.ndarray]" = {}
        #: Per slice, the contributors already merged: dedup and readiness.
        self.got: "List[Set[Optional[str]]]" = [set() for _ in range(num_slices)]
        self.row_len = 0
        self.bounds: "List[int]" = []
        if row_len:
            self.set_row_len(row_len)

    def set_row_len(self, row_len: int) -> None:
        """Learn (or check) the bytes per row, which fixes the slicing."""
        if row_len < 1:
            raise AggregationError(f"bad row_len {row_len}")
        if self.row_len == 0:
            self.row_len = row_len
            self.bounds = slice_bounds(row_len, self.num_slices)
        elif self.row_len != row_len:
            raise AggregationError(f"row_len mismatch: {self.row_len} != {row_len}")

    def merge(
        self,
        sender: "Optional[str]",
        first: int,
        last: int,
        buffers: "Mapping[int, np.ndarray]",
        offset: "Optional[int]" = None,
    ) -> bool:
        """XOR ``sender``'s slices ``first..last`` in; False on a duplicate.

        ``buffers`` maps rows to bytes ``[bounds[first], bounds[last+1])``,
        which ``offset`` (if given) must start.  A whole row that is its
        row's first contribution is adopted: the caller hands it over.
        """
        if sender not in self.contributors:
            raise AggregationError(f"{sender} is not a contributor")
        if not (0 <= first <= last < self.num_slices and self.row_len):
            raise AggregationError(f"slices {first}..{last} do not fit yet")
        got = self.got
        seen = [sender in got[i] for i in range(first, last + 1)]
        if all(seen):
            return False
        if any(seen):
            raise AggregationError(f"{sender} re-sent part of slices {first}..{last}")
        lo, hi = self.bounds[first], self.bounds[last + 1]
        if offset is not None and offset != lo:
            raise AggregationError(f"slice {first} starts at {lo}, not {offset}")
        rows, size = self.rows, hi - lo
        for row, buf in buffers.items():
            if not 0 <= row < rows or buf.size != size:
                raise AggregationError(f"row {row} of {buf.size} B is not [{lo}, {hi})")
        partial, whole = self.partial, size == self.row_len
        for row, buf in buffers.items():
            mine = partial.get(row)
            if mine is None:
                if whole:
                    partial[row] = buf
                    continue
                mine = partial[row] = np.zeros(self.row_len, dtype=np.uint8)
            view = mine if whole else mine[lo:hi]
            np.bitwise_xor(view, buf, out=view)
        for i in range(first, last + 1):
            got[i].add(sender)
        return True

    def ready(self, index: int) -> bool:
        """Whether every contributor's slice ``index`` is merged."""
        return len(self.got[index]) == len(self.contributors)

    def missing(self, index: int) -> "List[str]":
        """The children whose slice ``index`` has not been merged yet."""
        return sorted(c for c in self.contributors - self.got[index] if c is not LOCAL)

    def segments(
        self, index: int, rows: "Optional[Mapping[int, np.ndarray]]" = None
    ) -> "Dict[int, np.ndarray]":
        """Views of slice ``index`` of ``rows`` (default: the aggregate)."""
        lo, hi = self.bounds[index], self.bounds[index + 1]
        source = self.partial if rows is None else rows
        return {row: buf[lo:hi] for row, buf in sorted(source.items())}

    def assemble(self) -> np.ndarray:
        """The rebuilt chunk: the aggregated rows laid end to end."""
        if not self.partial:
            raise AggregationError("no partial rows to assemble")
        if self.rows == 1 and 0 in self.partial:
            return self.partial[0]  # the one aggregated row is the chunk
        chunk = np.zeros(self.rows * self.row_len, dtype=np.uint8)
        view = chunk.reshape(self.rows, self.row_len)
        for row, buf in self.partial.items():
            view[row] = buf
        return chunk
