"""Base class for codes defined by an ``n x k`` generator matrix.

Covers RS, Cauchy-RS and LRC.  Decoding selects an invertible ``k x k``
row subset; single-chunk repair expresses the lost chunk's generator row in
the span of surviving rows (see :mod:`repro.linalg.span`), which directly
yields the decoding coefficients PPR distributes.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

import numpy as np

from repro.errors import CodingError, SingularMatrixError, UnrecoverableError
from repro.codes.base import ErasureCode
from repro.codes.recipe import RepairRecipe, whole_chunk_recipe
from repro.linalg.matrix import GFMatrix
from repro.linalg.span import express_in_span


class GeneratorMatrixCode(ErasureCode):
    """An erasure code ``chunks = G @ data`` with ``G`` of shape (n, k)."""

    rows = 1

    def __init__(self, generator: GFMatrix):
        if generator.rows < generator.cols:
            raise CodingError("generator must have at least k rows")
        self._generator = generator

    @property
    def generator(self) -> GFMatrix:
        """The ``(n, k)`` generator matrix (top k rows usually identity)."""
        return self._generator

    @property
    def k(self) -> int:
        return self._generator.cols

    @property
    def n(self) -> int:
        return self._generator.rows

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, data: np.ndarray) -> np.ndarray:
        data = self._validated_data(data)
        return self._generator.mul_buffer(data)

    def decode_data(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        indices = self._validated_alive(available.keys(), lost=None)
        if len(indices) < self.k:
            raise UnrecoverableError(
                f"{self.name}: {len(indices)} survivors < k={self.k}"
            )
        chosen = self._independent_subset(indices)
        if chosen is None:
            raise UnrecoverableError(
                f"{self.name}: surviving rows do not span the data space"
            )
        submatrix = self._generator.take_rows(chosen)
        stack = np.stack([np.asarray(available[i], dtype=np.uint8) for i in chosen])
        try:
            return submatrix.solve(stack)
        except SingularMatrixError as exc:  # defensive; subset was checked
            raise UnrecoverableError(str(exc)) from exc

    def _independent_subset(
        self, indices: Sequence[int]
    ) -> "List[int] | None":
        """Greedily pick k independent generator rows from ``indices``."""
        chosen: List[int] = []
        for index in indices:
            candidate = chosen + [index]
            if self._generator.take_rows(candidate).rank() == len(candidate):
                chosen.append(index)
            if len(chosen) == self.k:
                return chosen
        return None

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def helper_preference(self, lost: int, alive: Sequence[int]) -> List[int]:
        """Order in which survivors are offered to the repair solver.

        The base class has no locality structure, so the order is
        ascending; LRC overrides this to put the lost chunk's local group
        first.
        """
        return list(alive)

    def _repair_recipe(self, lost: int, alive_list: List[int]) -> RepairRecipe:
        ordered = self.helper_preference(lost, alive_list)
        rows = [self._generator.row(i) for i in ordered]
        combo = express_in_span(rows, ordered, self._generator.row(lost))
        if combo is None:
            raise UnrecoverableError(
                f"{self.name}: chunk {lost} is unrecoverable from {alive_list}"
            )
        return whole_chunk_recipe(lost, combo)

    def is_recoverable(self, alive: Iterable[int]) -> bool:
        indices = self._validated_alive(alive, lost=None)
        if len(indices) < self.k:
            return False
        return self._generator.take_rows(indices).rank() == self.k
