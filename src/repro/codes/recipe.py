"""Repair recipes: the linear equation a repair executes.

A :class:`RepairRecipe` describes how to rebuild one lost chunk from
surviving chunks as a sparse linear map per helper:

    lost[row] = XOR over terms of coeff * helper_chunk[helper_row]

For whole-chunk codes (RS, LRC) ``rows == 1`` and each helper contributes a
single coefficient — the paper's ``R = a1*C1 + a2*C2 + ...`` (§4.1).  For
sub-chunk codes (Rotated RS) a helper may contribute only some of its rows
to only some of the lost chunk's rows, which is where the read savings come
from.

The recipe is *where* PPR's associativity argument lives: partial results
(dicts ``lost_row -> buffer``) XOR-merge in any grouping, so a binomial
reduction tree computes exactly the same bytes as central decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import CodingError, PlanError
from repro.galois.vector import combine


def split_rows(payload: np.ndarray, rows: int) -> np.ndarray:
    """Reshape a 1-D chunk payload into its ``rows`` sub-chunk rows."""
    array = np.asarray(payload, dtype=np.uint8)
    if array.ndim != 1:
        raise CodingError("chunk buffers must be 1-D")
    if rows < 1 or array.size % rows:
        raise CodingError(
            f"chunk of {array.size} bytes not divisible into {rows} rows"
        )
    return array.reshape(rows, -1)


def compute_partial(
    entries: "Sequence[Tuple[int, int, int]]",
    rows: int,
    payload: np.ndarray,
) -> "Dict[int, np.ndarray]":
    """One helper's partial result, ``lost_row -> buffer``, from ``entries``.

    This is the local computation PPR schedules on a helper server (scalar
    multiplications only, §4.1 observation 2): the output buffer of
    ``lost_row`` is the XOR of ``coeff * payload[helper_row]`` over its
    ``(lost_row, helper_row, coeff)`` entries.  It needs the entries alone
    — a :class:`~repro.fs.messages.PartialOpRequest` carries exactly those
    — not the recipe object, which is what lets a remote chunk server act
    on the plan command by itself.
    """
    stacked = split_rows(payload, rows)
    out = {
        lost_row: np.empty(stacked.shape[1], dtype=np.uint8)
        for lost_row, _, _ in entries
    }
    combine(out, stacked, entries)
    return out


@dataclass(frozen=True)
class RecipeTerm:
    """One helper chunk's contribution to the lost chunk.

    ``entries`` is a tuple of ``(lost_row, helper_row, coeff)`` triples with
    nonzero coefficients.
    """

    helper: int
    entries: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise PlanError(f"recipe term for helper {self.helper} is empty")
        for lost_row, helper_row, coeff in self.entries:
            if coeff == 0 or not 0 <= coeff < 256:
                raise PlanError(f"bad coefficient {coeff} in recipe term")
            if lost_row < 0 or helper_row < 0:
                raise PlanError("negative row index in recipe term")

    @property
    def read_rows(self) -> "frozenset[int]":
        """Helper rows that must be read from the helper's chunk."""
        return frozenset(helper_row for _, helper_row, _ in self.entries)

    @property
    def output_rows(self) -> "frozenset[int]":
        """Lost-chunk rows this helper's partial result covers."""
        return frozenset(lost_row for lost_row, _, _ in self.entries)


@dataclass(frozen=True)
class RepairRecipe:
    """The full linear equation rebuilding chunk ``lost`` of a stripe."""

    lost: int
    rows: int
    terms: Tuple[RecipeTerm, ...]

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise PlanError(f"rows must be >= 1, got {self.rows}")
        seen = set()
        for term in self.terms:
            if term.helper == self.lost:
                raise PlanError("lost chunk cannot be its own helper")
            if term.helper in seen:
                raise PlanError(f"duplicate helper {term.helper} in recipe")
            seen.add(term.helper)
            for lost_row, helper_row, _ in term.entries:
                if lost_row >= self.rows or helper_row >= self.rows:
                    raise PlanError("row index out of range in recipe")

    # ------------------------------------------------------------------
    # Introspection used by planners and the simulator
    # ------------------------------------------------------------------
    @property
    def helpers(self) -> "tuple[int, ...]":
        return tuple(term.helper for term in self.terms)

    def term_for(self, helper: int) -> RecipeTerm:
        for term in self.terms:
            if term.helper == helper:
                return term
        raise PlanError(f"helper {helper} not in recipe")

    def read_fraction(self, helper: int) -> float:
        """Fraction of the helper's chunk read from disk."""
        return len(self.term_for(helper).read_rows) / self.rows

    def partial_fraction(self, helper: int) -> float:
        """Fraction of a chunk a *partial result* from this helper occupies.

        With PPR, a helper ships its locally-combined contribution: one
        buffer per lost row it touches.
        """
        return len(self.term_for(helper).output_rows) / self.rows

    def raw_fraction(self, helper: int) -> float:
        """Fraction of a chunk shipped when sending *raw* rows (traditional).

        Traditional repair sends exactly what it read.
        """
        return self.read_fraction(helper)

    def total_read_fraction(self) -> float:
        """Total disk reads across helpers, in units of one chunk."""
        return sum(self.read_fraction(term.helper) for term in self.terms)

    def total_raw_fraction(self) -> float:
        """Total bytes into a central repair site, in units of one chunk."""
        return sum(self.raw_fraction(term.helper) for term in self.terms)

    # ------------------------------------------------------------------
    # Execution (correctness path)
    # ------------------------------------------------------------------
    def partial_result(
        self, helper: int, chunk: np.ndarray
    ) -> "Dict[int, np.ndarray]":
        """Compute one helper's partial result: ``lost_row -> buffer``."""
        return compute_partial(self.term_for(helper).entries, self.rows, chunk)

    @staticmethod
    def merge_partials(
        left: Mapping[int, np.ndarray], right: Mapping[int, np.ndarray]
    ) -> "Dict[int, np.ndarray]":
        """XOR-merge two partial results (the aggregation-server op)."""
        merged: Dict[int, np.ndarray] = {
            row: buf.copy() for row, buf in left.items()
        }
        for row, buf in right.items():
            if row in merged:
                np.bitwise_xor(merged[row], buf, out=merged[row])
            else:
                merged[row] = buf.copy()
        return merged

    def assemble(self, partials: Mapping[int, np.ndarray]) -> np.ndarray:
        """Turn a fully-merged partial map into the reconstructed chunk."""
        if self.rows == 0 or not partials:
            raise CodingError("cannot assemble from empty partials")
        row_len = next(iter(partials.values())).size
        chunk = np.zeros(self.rows * row_len, dtype=np.uint8)
        view = chunk.reshape(self.rows, row_len)
        for row, buf in partials.items():
            if not 0 <= row < self.rows:
                raise CodingError(f"partial row {row} out of range")
            view[row] = buf
        return chunk

    def execute_rows(
        self, raw: "Mapping[int, Mapping[int, np.ndarray]]"
    ) -> np.ndarray:
        """Execute from per-row raw transfers: ``helper -> {row -> buffer}``.

        Traditional repair over sub-chunk codes ships only the helper rows
        the recipe reads; this entry point consumes exactly that.
        """
        sources: Dict[Tuple[int, int], np.ndarray] = {}
        entries = []
        for term in self.terms:
            rows = raw.get(term.helper)
            if rows is None:
                raise CodingError(f"missing raw rows for helper {term.helper}")
            for lost_row, helper_row, coeff in term.entries:
                if helper_row not in rows:
                    raise CodingError(
                        f"helper {term.helper} raw transfer missing row "
                        f"{helper_row}"
                    )
                sources[term.helper, helper_row] = rows[helper_row]
                entries.append((lost_row, (term.helper, helper_row), coeff))
        merged = {
            lost_row: np.empty_like(sources[key])
            for lost_row, key, _ in entries
        }
        combine(merged, sources, entries)
        return self.assemble(merged)

    def read_rows_payload(
        self, helper: int, chunk: np.ndarray
    ) -> "Dict[int, np.ndarray]":
        """Extract the helper rows a raw transfer ships: ``row -> buffer``."""
        rows = split_rows(chunk, self.rows)
        return {
            helper_row: rows[helper_row].copy()
            for helper_row in self.term_for(helper).read_rows
        }

    def execute(self, chunks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Centrally execute the recipe; reference implementation.

        ``chunks`` maps helper index -> full chunk buffer.  Used both by
        traditional repair and by tests as ground truth for PPR execution.
        """
        raw: Dict[int, Dict[int, np.ndarray]] = {}
        for term in self.terms:
            if term.helper not in chunks:
                raise CodingError(f"missing helper chunk {term.helper}")
            rows = split_rows(chunks[term.helper], self.rows)
            raw[term.helper] = dict(enumerate(rows))
        return self.execute_rows(raw)


def whole_chunk_recipe(
    lost: int, coefficients: Mapping[int, int]
) -> RepairRecipe:
    """Build a rows==1 recipe from ``helper -> coefficient`` (RS/LRC case)."""
    terms = tuple(
        RecipeTerm(helper=h, entries=((0, 0, int(c)),))
        for h, c in sorted(coefficients.items())
        if int(c) != 0
    )
    if not terms:
        raise PlanError("whole-chunk recipe has no nonzero coefficients")
    return RepairRecipe(lost=lost, rows=1, terms=terms)
