"""RDP — Row-Diagonal Parity (Corbett et al., FAST'04).

Cited by the paper (§8 [47][51] family: optimized recovery for
double-parity array codes).  RDP(p), p prime, is a ``(p-1) x (p+1)``
array: ``p-1`` data chunks, one row-parity chunk, one diagonal-parity
chunk.  The crucial difference from EVENODD: diagonals include the *row
parity* column, which removes the adjuster term:

* **P** (chunk p-1): ``P[l] = XOR_{t<p-1} d[l][t]``
* **Q** (chunk p):   diagonal ``i`` covers cells ``(r, c)`` with
  ``(r + c) mod p == i`` over data *and* P columns;
  ``Q[i] = XOR {cells on diagonal i}`` for ``i = 0..p-2``
  (diagonal ``p-1`` is the "missing" one, never stored).

XOR-only like EVENODD.  Single-data-chunk repair implements the *hybrid
recovery* of Xiang, Xu, Lui, Chang (SIGMETRICS'10 — the paper's [51]):
recover some lost rows from row equations and the rest from diagonal
equations, chosen by exact search to maximize symbol overlap, cutting
reads by ~25% versus all-row recovery.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.codes.arraycode import SubGeneratorCode
from repro.codes.evenodd import _is_prime
from repro.linalg.matrix import GFMatrix


def _rdp_generator(p: int) -> GFMatrix:
    rows_per_chunk = p - 1
    k = p - 1  # data chunks
    n = p + 1
    gen = np.zeros((n * rows_per_chunk, k * rows_per_chunk), dtype=np.uint8)

    def data_col(i: int, row: int) -> int:
        return i * rows_per_chunk + row

    gen[: k * rows_per_chunk, : k * rows_per_chunk] = np.eye(
        k * rows_per_chunk, dtype=np.uint8
    )
    # P (chunk index p-1): row parity over the p-1 data columns.
    p_base = (p - 1) * rows_per_chunk
    for l in range(rows_per_chunk):
        for t in range(k):
            gen[p_base + l, data_col(t, l)] ^= 1
    # Q (chunk index p): diagonal parity over data + P columns.
    # Column c of the conceptual array: c in 0..p-1 where c<p-1 are data
    # and c == p-1 is P.  Diagonal i covers (r, c) with (r+c) mod p == i.
    q_base = p * rows_per_chunk
    for i in range(rows_per_chunk):  # stored diagonals 0..p-2
        for c in range(p):
            r = (i - c) % p
            if r >= rows_per_chunk:
                continue  # off the array (the imaginary row)
            if c < p - 1:
                gen[q_base + i, data_col(c, r)] ^= 1
            else:
                # P cell (r, P): substitute P's defining XOR of data.
                for t in range(k):
                    gen[q_base + i, data_col(t, r)] ^= 1
    return GFMatrix(gen)


class RowDiagonalParityCode(SubGeneratorCode):
    """RDP(p): p-1 data chunks + row parity + diagonal parity.

    MDS for two erasures.

    >>> RowDiagonalParityCode(5).name
    'RDP(5)'
    """

    def __init__(self, p: int):
        if not _is_prime(p) or p < 3:
            raise ConfigurationError(f"RDP requires prime p >= 3, got {p}")
        self._p = p
        super().__init__(k=p - 1, n=p + 1, rows=p - 1,
                         sub_generator=_rdp_generator(p))

    @property
    def name(self) -> str:
        return f"RDP({self._p})"

    @property
    def p(self) -> int:
        """The prime parameter."""
        return self._p

    @property
    def fault_tolerance(self) -> int:
        return 2

    def helper_preference(self, lost: int, alive: Sequence[int]) -> List[int]:
        """Offer data + row parity first; diagonal parity as a last resort."""
        ordered = sorted(alive)
        diag = self._p
        front = [i for i in ordered if i != diag]
        return front + [i for i in ordered if i == diag]

    # ------------------------------------------------------------------
    # Hybrid single-failure recovery (Xiang et al., SIGMETRICS'10)
    # ------------------------------------------------------------------
    def _row_equation(self, f: int, r: int) -> "List[Tuple[int, int]]":
        """Symbols (chunk, row) in the row equation for cell (r, f)."""
        symbols: "List[Tuple[int, int]]" = [(self._p - 1, r)]  # P[r]
        for t in range(self.k):
            if t != f:
                symbols.append((t, r))
        return symbols

    def _diag_equation(self, f: int, r: int) -> "List[Tuple[int, int]]":
        """Symbols in the diagonal equation for cell (r, f).

        Diagonal ``i = (r + f) mod p`` covers data columns and the P
        column; Q stores it at row i (only diagonals 0..p-2 exist).
        """
        p = self._p
        i = (r + f) % p
        if i == p - 1:
            return []  # the missing diagonal: no stored Q row
        symbols: "List[Tuple[int, int]]" = [(p, i)]  # Q[i]
        for c in range(p):  # conceptual columns: data 0..p-2, P at p-1
            if c == f:
                continue
            row = (i - c) % p
            if row >= p - 1:
                continue  # imaginary row
            chunk = c if c < p - 1 else p - 1
            symbols.append((chunk, row))
        return symbols

    def _repair_recipe(self, lost: int, alive_list: "List[int]") -> "RepairRecipe":
        alive_set = set(alive_list)
        full_helpers = set(range(self.n)) - {lost}
        if lost >= self.k or alive_set != full_helpers:
            # Parity chunks and degraded survivor sets: generic solver.
            return super()._repair_recipe(lost, alive_list)

        # Enumerate row-vs-diagonal per lost cell, minimizing distinct
        # symbols read (2^(p-1) choices; p <= 13 keeps this instant).
        per_row: "List[List[List[Tuple[int, int]]]]" = []
        for r in range(self.rows):
            options = [self._row_equation(lost, r)]
            diag = self._diag_equation(lost, r)
            if diag:
                options.append(diag)
            per_row.append(options)

        def cost(choice) -> int:
            read: "Set[Tuple[int, int]]" = set()
            for symbols in choice:
                read.update(symbols)
            return len(read)

        best = min(itertools.product(*per_row), key=cost)
        entries_by_helper: "Dict[int, List[Tuple[int, int, int]]]" = {}
        for r, symbols in enumerate(best):
            for chunk, row in symbols:
                entries_by_helper.setdefault(chunk, []).append((r, row, 1))
        from repro.codes.recipe import RecipeTerm, RepairRecipe

        terms = []
        for helper in sorted(entries_by_helper):
            merged: "Dict[Tuple[int, int], int]" = {}
            for lost_row, helper_row, coeff in entries_by_helper[helper]:
                key = (lost_row, helper_row)
                merged[key] = merged.get(key, 0) ^ coeff
            entry_tuple = tuple(
                (lr, hr, c) for (lr, hr), c in sorted(merged.items()) if c
            )
            if entry_tuple:
                terms.append(RecipeTerm(helper=helper, entries=entry_tuple))
        return RepairRecipe(lost=lost, rows=self.rows, terms=tuple(terms))

    def single_repair_read_symbols(self, lost: int) -> int:
        """Distinct sub-symbols read for a single-chunk repair."""
        recipe = self.repair_recipe(lost, set(range(self.n)) - {lost})
        return sum(len(term.read_rows) for term in recipe.terms)
