"""N-way replication expressed as a degenerate erasure code.

Used as the cost/reliability comparison point from the paper's
introduction: 3x replication stores 3x bytes, tolerates 2 losses, and
repairs by copying a single chunk (``1 x C`` of repair traffic, versus
``k x C`` for RS).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping

import numpy as np

from repro.errors import ConfigurationError, UnrecoverableError
from repro.codes.base import ErasureCode
from repro.codes.recipe import RepairRecipe, whole_chunk_recipe


class ReplicationCode(ErasureCode):
    """``copies``-way replication of a single chunk (k = 1)."""

    def __init__(self, copies: int = 3):
        if copies < 1:
            raise ConfigurationError(f"need copies >= 1, got {copies}")
        self._copies = copies

    @property
    def name(self) -> str:
        return f"REP({self._copies})"

    @property
    def k(self) -> int:
        return 1

    @property
    def n(self) -> int:
        return self._copies

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = self._validated_data(data)
        return np.repeat(data, self._copies, axis=0)

    def decode_data(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        indices = self._validated_alive(available.keys(), lost=None)
        if not indices:
            raise UnrecoverableError("REP: all replicas lost")
        chunk = np.asarray(available[indices[0]], dtype=np.uint8)
        return chunk.reshape(1, -1)

    def _repair_recipe(self, lost: int, alive_list: List[int]) -> RepairRecipe:
        if not alive_list:
            raise UnrecoverableError("REP: all replicas lost")
        return whole_chunk_recipe(lost, {alive_list[0]: 1})

    def is_recoverable(self, alive: Iterable[int]) -> bool:
        return bool(self._validated_alive(alive, lost=None))
