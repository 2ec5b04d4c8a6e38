"""The common interface all erasure codes implement.

A code sees a *stripe* as ``n = k + parity`` equal-size chunks derived from
``k`` data chunks.  Buffers are numpy uint8 arrays; blob helpers handle
padding arbitrary ``bytes`` payloads in and out of stripes.
"""

from __future__ import annotations

import abc
from typing import Callable, Hashable, Iterable, List, Mapping, TypeVar

import numpy as np

from repro.errors import CodingError, UnrecoverableError
from repro.codes.recipe import RepairRecipe

T = TypeVar("T")

#: Survivor patterns whose decoding inverse one code keeps, most recently
#: used first: an inverse holds its product plans' lane tables (~590 KB
#: for rotrs(12,4)).
DECODE_MEMO = 16


class ErasureCode(abc.ABC):
    """Abstract erasure code over GF(2^8).

    Subclasses define :attr:`k`, :attr:`n`, :attr:`rows` (sub-chunks per
    chunk; 1 unless the code subdivides chunks like Rotated RS), encoding,
    and repair-recipe construction.
    """

    #: Sub-chunks ("rows") per chunk.  Chunk byte length must divide by this.
    rows: int = 1

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable name, e.g. ``"RS(6,3)"``."""

    @property
    @abc.abstractmethod
    def k(self) -> int:
        """Number of data chunks per stripe."""

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Total chunks per stripe (data + parity)."""

    @property
    def num_parity(self) -> int:
        return self.n - self.k

    @property
    def storage_overhead(self) -> float:
        """Raw bytes stored per user byte (1.5 for RS(4,2), 3.0 for 3-rep)."""
        return self.n / self.k

    @property
    def fault_tolerance(self) -> int:
        """Guaranteed number of simultaneous chunk losses survivable."""
        return self.num_parity

    def data_indices(self) -> range:
        return range(self.k)

    def parity_indices(self) -> range:
        return range(self.k, self.n)

    # ------------------------------------------------------------------
    # Core coding operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode a ``(k, chunk_len)`` data stack into ``(n, chunk_len)``."""

    @abc.abstractmethod
    def decode_data(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Recover the ``(k, chunk_len)`` data stack from surviving chunks.

        Raises :class:`UnrecoverableError` if the survivors are not enough.
        """

    def repair_recipe(
        self, lost: int, alive: Iterable[int]
    ) -> RepairRecipe:
        """The linear repair equation for chunk ``lost`` given survivors.

        Solved once per ``(lost, alive)`` pattern and memoized, an
        unrecoverable pattern too: a repair manager meets the same
        erasure patterns over and over.
        """
        alive_list = self._validated_alive(alive, lost=lost)
        return self._memoized(
            "_recipes", (lost, tuple(alive_list)),
            lambda: self._repair_recipe(lost, alive_list),
        )

    def _memoized(
        self, name: str, key: Hashable, solve: "Callable[[], T]",
        limit: "int | None" = None,
    ) -> T:
        """``solve()``, run once per ``key`` and kept in this code's memo
        ``name``; an unrecoverable pattern is kept too, and raised afresh
        on every call.  With ``limit``, the memo keeps only that many of
        the most recently used keys."""
        memo = self.__dict__.setdefault(name, {})
        found = memo.pop(key, None) if limit else memo.get(key)
        if found is None:
            try:
                found = solve()
            except UnrecoverableError as exc:
                found = UnrecoverableError(*exc.args)
            if limit and len(memo) >= limit:
                memo.pop(next(iter(memo)), None)
        memo[key] = found
        if isinstance(found, UnrecoverableError):
            raise UnrecoverableError(*found.args)
        return found

    @abc.abstractmethod
    def _repair_recipe(self, lost: int, alive: "List[int]") -> RepairRecipe:
        """Solve for :meth:`repair_recipe`; ``alive`` is validated, sorted
        and without ``lost``.

        Implementations should prefer cheap equations (locality, minimal
        sub-chunk reads) when the code offers them.
        """

    def is_recoverable(self, alive: Iterable[int]) -> bool:
        """Whether the full data stripe can be recovered from ``alive``."""
        alive_set = self._validated_alive(alive, lost=None)
        try:
            probe = np.zeros((self.k, self.rows), dtype=np.uint8)
            encoded = self.encode(probe)
            self.decode_data({i: encoded[i] for i in alive_set})
            return True
        except UnrecoverableError:
            return False

    def reconstruct(
        self, lost: int, available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild one chunk from survivors using the repair recipe."""
        recipe = self.repair_recipe(lost, available.keys())
        return recipe.execute(available)

    # ------------------------------------------------------------------
    # Validation helpers for subclasses
    # ------------------------------------------------------------------
    def _validated_data(self, data: np.ndarray) -> np.ndarray:
        array = np.asarray(data, dtype=np.uint8)
        if array.ndim != 2 or array.shape[0] != self.k:
            raise CodingError(
                f"{self.name}: expected ({self.k}, L) data stack, "
                f"got shape {array.shape}"
            )
        if array.shape[1] % self.rows:
            raise CodingError(
                f"{self.name}: chunk length {array.shape[1]} not divisible "
                f"by {self.rows} rows"
            )
        return array

    def _validated_alive(
        self, alive: Iterable[int], lost: "int | None"
    ) -> "List[int]":
        alive_list = sorted(set(alive))
        for index in alive_list:
            if not 0 <= index < self.n:
                raise CodingError(f"chunk index {index} out of range")
        if lost is not None:
            if not 0 <= lost < self.n:
                raise CodingError(f"lost index {lost} out of range")
            alive_list = [i for i in alive_list if i != lost]
        return alive_list

    # ------------------------------------------------------------------
    # Blob (bytes) helpers
    # ------------------------------------------------------------------
    def chunk_length(self, blob_size: int) -> int:
        """Chunk byte length used to store a blob of ``blob_size`` bytes."""
        per_chunk = -(-blob_size // self.k)  # ceil division
        remainder = per_chunk % self.rows
        if remainder:
            per_chunk += self.rows - remainder
        return max(per_chunk, self.rows)

    def encode_blob(self, blob: bytes) -> "List[np.ndarray]":
        """Split + pad a byte string into k data chunks and encode."""
        chunk_len = self.chunk_length(len(blob))
        padded = np.zeros(self.k * chunk_len, dtype=np.uint8)
        padded[: len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        encoded = self.encode(padded.reshape(self.k, chunk_len))
        return [encoded[i] for i in range(self.n)]

    def decode_blob(
        self, available: Mapping[int, np.ndarray], blob_size: int
    ) -> bytes:
        """Inverse of :meth:`encode_blob`."""
        data = self.decode_data(available)
        return data.reshape(-1)[:blob_size].tobytes()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
