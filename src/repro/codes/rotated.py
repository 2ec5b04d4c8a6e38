"""Rotated Reed-Solomon (Khan et al., FAST'12).

Each chunk is split into ``r`` sub-chunks (rows).  Parity ``j``'s row ``b``
combines *rotated* data rows::

    p[j][b] =   sum_{i <  j*k/m}  g[j][i] * d[i][(b+1) mod r]
              ^ sum_{i >= j*k/m}  g[j][i] * d[i][b]

i.e. for parity ``j`` the first ``j*k/m`` data columns are shifted down one
row.  The rotation lets a single-column repair mix rows so that it reads
roughly ``r/2 * (k + ceil(k/m))`` sub-symbols instead of ``r * k`` — the
paper's Fig. 9 overlays PPR on exactly this code.

Repair planning reproduces Khan et al.'s *recovery-equation enumeration*:
for each lost sub-symbol there are up to ``m`` usable parity equations;
we search the ``m^r`` joint choices exactly (falling back to greedy when
that blows up) for the one minimizing distinct sub-symbols read.

Multi-failure decode solves the sub-symbol linear system generically, so
any information-theoretically recoverable pattern decodes.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, UnrecoverableError
from repro.codes.arraycode import SubGeneratorCode
from repro.codes.recipe import RecipeTerm, RepairRecipe
from repro.linalg.builders import cauchy_matrix
from repro.linalg.matrix import GFMatrix
from repro.galois.field import gf256

#: Above this many joint equation choices, fall back to greedy search.
_EXACT_SEARCH_LIMIT = 4096

#: A sub-symbol: (chunk index, row) with chunks 0..k-1 data, k..k+m-1 parity.
SubSymbol = Tuple[int, int]


class RotatedReedSolomonCode(SubGeneratorCode):
    """Rotated RS(k, m) with r sub-chunk rows per chunk.

    >>> code = RotatedReedSolomonCode(6, 3, r=4)
    >>> code.name
    'RotRS(6,3,r=4)'
    """

    def __init__(self, k: int, m: int, r: int = 4):
        if m < 1:
            raise ConfigurationError(f"Rotated RS needs m >= 1, got {m}")
        if r < 1:
            raise ConfigurationError(f"Rotated RS needs r >= 1, got {r}")
        if k % m:
            raise ConfigurationError(
                f"Rotated RS requires m | k (got k={k}, m={m})"
            )
        self._k = k
        self._m = m
        self._r = r
        self._coeffs = cauchy_matrix(m, k).data  # g[j][i]
        super().__init__(k, k + m, r, self._build_sub_generator(k, m, r))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"RotRS({self._k},{self._m},r={self._r})"

    @property
    def m(self) -> int:
        return self._m

    @property
    def r(self) -> int:
        """Sub-chunk rows per chunk."""
        return self._r

    @property
    def fault_tolerance(self) -> int:
        """Guaranteed tolerance.

        Khan et al. prove MDS behaviour only for m in {2, 3} under parameter
        restrictions; we guarantee single-failure recovery and let
        :meth:`is_recoverable` answer exactly for any pattern (the tests
        verify all double failures decode for the configurations used in
        the paper's evaluation).
        """
        return 1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _rotated_row(self, j: int, i: int, b: int) -> int:
        """Data row of column ``i`` used by parity ``j``'s row ``b``."""
        if i < j * self._k // self._m:
            return (b + 1) % self._r
        return b

    def _build_sub_generator(self, k: int, m: int, r: int) -> GFMatrix:
        """The ``(n*r, k*r)`` map from data sub-symbols to all sub-symbols."""
        data = np.zeros(((k + m) * r, k * r), dtype=np.uint8)
        data[: k * r, : k * r] = np.eye(k * r, dtype=np.uint8)
        for j in range(m):
            for b in range(r):
                row = (k + j) * r + b
                for i in range(k):
                    col = i * r + self._rotated_row(j, i, b)
                    data[row, col] = self._coeffs[j, i]
        return GFMatrix(data)

    # ------------------------------------------------------------------
    # Repair planning (Khan et al. recovery-equation search)
    # ------------------------------------------------------------------
    def _equation_symbols(self, j: int, b_parity: int) -> List[SubSymbol]:
        """All sub-symbols appearing in parity ``j``'s row ``b_parity``."""
        symbols: List[SubSymbol] = [(self._k + j, b_parity)]
        for i in range(self._k):
            symbols.append((i, self._rotated_row(j, i, b_parity)))
        return symbols

    def _candidate_equations(self, f: int, b: int) -> List[Tuple[int, int]]:
        """Parity equations ``(j, parity_row)`` containing data symbol (f, b)."""
        candidates: List[Tuple[int, int]] = []
        for j in range(self._m):
            if f < j * self._k // self._m:
                candidates.append((j, (b - 1) % self._r))
            else:
                candidates.append((j, b))
        return candidates

    def _plan_data_column_repair(
        self, f: int, alive: Set[int]
    ) -> "Dict[int, Tuple[int, int]]":
        """Choose one parity equation per lost row of data column ``f``.

        Returns ``lost_row -> (j, parity_row)`` minimizing distinct symbols
        read.  Requires the equation's parity chunk and all other data
        columns it touches to be alive.
        """
        per_row: List[List[Tuple[int, int]]] = []
        for b in range(self._r):
            usable = [
                (j, pb)
                for j, pb in self._candidate_equations(f, b)
                if (self._k + j) in alive
                and all(
                    i in alive
                    for i in range(self._k)
                    if i != f
                )
            ]
            if not usable:
                raise UnrecoverableError(
                    f"{self.name}: no usable recovery equation for "
                    f"sub-symbol ({f},{b}) with survivors {sorted(alive)}"
                )
            per_row.append(usable)

        def cost(choice: Sequence[Tuple[int, int]]) -> int:
            read: Set[SubSymbol] = set()
            for b, (j, pb) in enumerate(choice):
                for sym in self._equation_symbols(j, pb):
                    if sym[0] != f:
                        read.add(sym)
            return len(read)

        total = 1
        for options in per_row:
            total *= len(options)
        if total <= _EXACT_SEARCH_LIMIT:
            best = min(itertools.product(*per_row), key=cost)
        else:
            # Greedy: fix rows one at a time, choosing the equation adding
            # the fewest new symbols to the running read set.
            read: Set[SubSymbol] = set()
            best_list: List[Tuple[int, int]] = []
            for b, options in enumerate(per_row):
                def added(option: Tuple[int, int]) -> int:
                    j, pb = option
                    return sum(
                        1
                        for sym in self._equation_symbols(j, pb)
                        if sym[0] != f and sym not in read
                    )
                choice = min(options, key=added)
                best_list.append(choice)
                j, pb = choice
                read.update(
                    sym for sym in self._equation_symbols(j, pb) if sym[0] != f
                )
            best = tuple(best_list)
        return {b: best[b] for b in range(self._r)}

    def _repair_recipe(self, lost: int, alive_list: List[int]) -> RepairRecipe:
        alive_set = set(alive_list)
        if lost < self._k:
            return self._data_repair_recipe(lost, alive_set)
        return self._parity_repair_recipe(lost, alive_set)

    def _data_repair_recipe(self, f: int, alive: Set[int]) -> RepairRecipe:
        plan = self._plan_data_column_repair(f, alive)
        entries_by_helper: Dict[int, List[Tuple[int, int, int]]] = {}
        for b, (j, pb) in plan.items():
            g_jf = int(self._coeffs[j, f])
            inv = gf256.inv(g_jf)
            # d[f][b] = inv * p[j][pb] ^ sum_{i != f} inv*g[j][i] * d[i][row_i]
            entries_by_helper.setdefault(self._k + j, []).append((b, pb, inv))
            for i in range(self._k):
                if i == f:
                    continue
                coeff = gf256.mul(inv, int(self._coeffs[j, i]))
                if coeff == 0:
                    continue
                row_i = self._rotated_row(j, i, pb)
                entries_by_helper.setdefault(i, []).append((b, row_i, coeff))
        return self._build_recipe(f, entries_by_helper)

    def _parity_repair_recipe(self, lost: int, alive: Set[int]) -> RepairRecipe:
        j = lost - self._k
        missing_data = [i for i in range(self._k) if i not in alive]
        if missing_data:
            raise UnrecoverableError(
                f"{self.name}: parity {lost} recompute needs all data "
                f"columns; missing {missing_data}"
            )
        entries_by_helper: Dict[int, List[Tuple[int, int, int]]] = {}
        for b in range(self._r):
            for i in range(self._k):
                coeff = int(self._coeffs[j, i])
                if coeff == 0:
                    continue
                row_i = self._rotated_row(j, i, b)
                entries_by_helper.setdefault(i, []).append((b, row_i, coeff))
        return self._build_recipe(lost, entries_by_helper)

    def _build_recipe(
        self,
        lost: int,
        entries_by_helper: Mapping[int, Sequence[Tuple[int, int, int]]],
    ) -> RepairRecipe:
        terms = []
        for helper in sorted(entries_by_helper):
            merged: Dict[Tuple[int, int], int] = {}
            for lost_row, helper_row, coeff in entries_by_helper[helper]:
                key = (lost_row, helper_row)
                merged[key] = merged.get(key, 0) ^ coeff
            entries = tuple(
                (lr, hr, c) for (lr, hr), c in sorted(merged.items()) if c
            )
            if entries:
                terms.append(RecipeTerm(helper=helper, entries=entries))
        return RepairRecipe(lost=lost, rows=self._r, terms=tuple(terms))

    # ------------------------------------------------------------------
    # Analytics
    # ------------------------------------------------------------------
    def single_repair_read_symbols(self, lost: int) -> int:
        """Distinct sub-symbols read to repair ``lost`` with all others alive.

        Khan et al. report ~``r/2 * (k + ceil(k/m))`` for even ``r``; the
        benchmarks compare this measurement against that formula.
        """
        alive = set(range(self.n)) - {lost}
        recipe = self.repair_recipe(lost, alive)
        return sum(len(term.read_rows) for term in recipe.terms)
