"""Base class for array codes defined at sub-symbol granularity.

An *array code* views each chunk as ``rows`` sub-symbols and defines the
code by a ``(n*rows) x (k*rows)`` generator over GF(2^8) mapping data
sub-symbols to all sub-symbols.  Rotated RS, EVENODD and RDP all fit this
shape; XOR-only codes (EVENODD, RDP) simply use {0,1} coefficients.

Generic machinery provided here:

* encode / decode (full-rank sub-row subset + solve),
* recoverability checks,
* repair recipes via span-solving each lost sub-row against surviving
  sub-rows, with a helper-preference hook so subclasses can steer the
  solver toward cheap equations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import CodingError, UnrecoverableError
from repro.codes.base import DECODE_MEMO, ErasureCode
from repro.codes.recipe import RecipeTerm, RepairRecipe
from repro.linalg.matrix import GFMatrix
from repro.linalg.span import express_in_span


class SubGeneratorCode(ErasureCode):
    """An erasure code defined by a sub-symbol generator matrix."""

    def __init__(self, k: int, n: int, rows: int, sub_generator: GFMatrix):
        if sub_generator.shape != (n * rows, k * rows):
            raise CodingError(
                f"sub-generator must be ({n * rows}, {k * rows}), "
                f"got {sub_generator.shape}"
            )
        self._k = k
        self._n = n
        self.rows = rows
        self._sub_generator = sub_generator

    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return self._n

    @property
    def sub_generator(self) -> GFMatrix:
        """The ``(n*rows, k*rows)`` sub-symbol generator."""
        return self._sub_generator

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, data: np.ndarray) -> np.ndarray:
        data = self._validated_data(data)
        chunk_len = data.shape[1]
        row_len = chunk_len // self.rows
        subs = data.reshape(self._k * self.rows, row_len)
        encoded = self._sub_generator.mul_buffer(subs)
        return encoded.reshape(self._n, chunk_len)

    def decode_data(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        indices = self._validated_alive(available.keys(), lost=None)
        if not indices:
            raise UnrecoverableError(f"{self.name}: no survivors")
        first = np.asarray(available[indices[0]], dtype=np.uint8)
        if first.size % self.rows:
            raise CodingError(
                f"{self.name}: chunk length {first.size} not divisible "
                f"by {self.rows} rows"
            )
        row_len = first.size // self.rows
        chosen, inverse = self._memoized(
            "_decoders", tuple(indices), lambda: self._decoder(indices), DECODE_MEMO
        )
        stack = np.stack([
            np.asarray(available[r // self.rows], dtype=np.uint8)
            .reshape(self.rows, row_len)[r % self.rows]
            for r in chosen
        ])
        solved = inverse.mul_buffer(stack)
        return solved.reshape(self._k, self.rows * row_len)

    def _decoder(self, indices: Sequence[int]) -> "Tuple[List[int], GFMatrix]":
        """The sub-rows decoding reads, and their generator rows' inverse."""
        sub_rows = [i * self.rows + b for i in indices for b in range(self.rows)]
        chosen = self._sub_generator.independent_rows(sub_rows, self._k * self.rows)
        if chosen is None:
            raise UnrecoverableError(
                f"{self.name}: survivors do not span the data sub-symbols"
            )
        return chosen, self._sub_generator.take_rows(chosen).inverse()

    def is_recoverable(self, alive: Iterable[int]) -> bool:
        indices = self._validated_alive(alive, lost=None)
        sub_rows = [i * self.rows + b for i in indices for b in range(self.rows)]
        if len(sub_rows) < self._k * self.rows:
            return False
        return (
            self._sub_generator.take_rows(sub_rows).rank()
            == self._k * self.rows
        )

    # ------------------------------------------------------------------
    # Generic repair via span solving
    # ------------------------------------------------------------------
    def helper_preference(self, lost: int, alive: Sequence[int]) -> List[int]:
        """Order in which surviving chunks are offered to the solver.

        Subclasses with structure (row parity first, diagonal second, ...)
        override this; earlier chunks yield cheaper equations because the
        span solver is greedy-prefix.
        """
        return list(alive)

    def _repair_recipe(self, lost: int, alive_list: "List[int]") -> RepairRecipe:
        ordered = self.helper_preference(lost, alive_list)
        sub_rows: "List[int]" = [
            i * self.rows + b for i in ordered for b in range(self.rows)
        ]
        rows_data = [self._sub_generator.row(r) for r in sub_rows]
        entries_by_helper: "Dict[int, List[Tuple[int, int, int]]]" = {}
        for b in range(self.rows):
            target = self._sub_generator.row(lost * self.rows + b)
            combo = express_in_span(rows_data, sub_rows, target)
            if combo is None:
                raise UnrecoverableError(
                    f"{self.name}: sub-row ({lost},{b}) unrecoverable from "
                    f"{alive_list}"
                )
            for sub_row, coeff in combo.items():
                helper, helper_row = divmod(sub_row, self.rows)
                entries_by_helper.setdefault(helper, []).append(
                    (b, helper_row, coeff)
                )
        terms = []
        for helper in sorted(entries_by_helper):
            merged: "Dict[Tuple[int, int], int]" = {}
            for lost_row, helper_row, coeff in entries_by_helper[helper]:
                key = (lost_row, helper_row)
                merged[key] = merged.get(key, 0) ^ coeff
            entries = tuple(
                (lr, hr, c) for (lr, hr), c in sorted(merged.items()) if c
            )
            if entries:
                terms.append(RecipeTerm(helper=helper, entries=entries))
        return RepairRecipe(lost=lost, rows=self.rows, terms=tuple(terms))
