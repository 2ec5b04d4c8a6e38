"""Control-plane message types of the PPR protocol (§6.2).

Messages are small and modeled with a fixed control latency; bulk data
rides :class:`~repro.sim.network.Flow` objects whose ``meta`` carries the
real payload buffers.

The same dataclasses are the *live* wire protocol's vocabulary: every
message here knows how to round-trip through a JSON-compatible dict
(``to_wire`` / ``from_wire``), which is what ``repro.live.wire`` frames
onto TCP sockets.  The pure GF helpers (:func:`compute_partial`,
re-exported from :mod:`repro.codes.recipe`, and :func:`extract_rows`) are
shared between the simulator's task state machines and the live chunk
servers so both execution layers run literally the same math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

# compute_partial is re-exported: the math lives beside the recipe it
# executes, and both execution layers import it from here.
from repro.codes.recipe import (
    RecipeTerm,
    RepairRecipe,
    compute_partial as compute_partial,
    split_rows,
)


@dataclass(frozen=True)
class PartialOpRequest:
    """The RM's (or an upstream peer's) plan command to one server.

    Mirrors the paper's ``<x2:C2:S2, x3:C3:S3>`` plan messages: which local
    chunk to read and scale, which downstream peers will feed partials in,
    and which upstream peer receives the aggregate.
    """

    repair_id: str
    stripe_id: str
    #: Chunk id this server must read locally; None when the server is a
    #: pure aggregator/destination hosting no relevant chunk.
    chunk_id: "Optional[str]"
    #: Recipe entries for the local chunk: (lost_row, helper_row, coeff).
    entries: "Tuple[Tuple[int, int, int], ...]"
    #: Sub-chunk rows per chunk for this stripe's code.
    rows: int
    #: Modeled chunk size in bytes.
    chunk_size: float
    #: Downstream peers whose partial results this server aggregates.
    children: "Tuple[str, ...]"
    #: Upstream peer (server id) to forward the aggregate to; None at the
    #: repair destination.
    parent: "Optional[str]"
    #: Lost-chunk rows this node ships upstream (plan subtree union).
    send_rows: "FrozenSet[int]"
    #: Fraction of a chunk the upstream transfer occupies.
    send_fraction: float
    #: Fraction of the local chunk read from disk.
    read_fraction: float
    #: Pipelining factor: cut transfers into this many slices (1 = the
    #: paper's store-and-forward PPR; >1 = repair-pipelining extension).
    num_slices: int = 1

    def to_wire(self) -> "Dict[str, Any]":
        """JSON-compatible dict for the live TCP protocol."""
        return {
            "repair_id": self.repair_id,
            "stripe_id": self.stripe_id,
            "chunk_id": self.chunk_id,
            "entries": [list(entry) for entry in self.entries],
            "rows": self.rows,
            "chunk_size": self.chunk_size,
            "children": list(self.children),
            "parent": self.parent,
            "send_rows": sorted(self.send_rows),
            "send_fraction": self.send_fraction,
            "read_fraction": self.read_fraction,
            "num_slices": self.num_slices,
        }

    @classmethod
    def from_wire(cls, data: "Dict[str, Any]") -> "PartialOpRequest":
        return cls(
            repair_id=data["repair_id"],
            stripe_id=data["stripe_id"],
            chunk_id=data["chunk_id"],
            entries=tuple(
                (int(a), int(b), int(c)) for a, b, c in data["entries"]
            ),
            rows=int(data["rows"]),
            chunk_size=float(data["chunk_size"]),
            children=tuple(data["children"]),
            parent=data["parent"],
            send_rows=frozenset(int(r) for r in data["send_rows"]),
            send_fraction=float(data["send_fraction"]),
            read_fraction=float(data["read_fraction"]),
            num_slices=int(data.get("num_slices", 1)),
        )


@dataclass(frozen=True)
class RawReadRequest:
    """Traditional repair's fetch: send me your raw rows for this repair."""

    repair_id: str
    stripe_id: str
    chunk_id: str
    #: Helper rows to read and ship.
    rows_needed: "FrozenSet[int]"
    rows: int
    chunk_size: float
    requester: str

    def to_wire(self) -> "Dict[str, Any]":
        return {
            "repair_id": self.repair_id,
            "stripe_id": self.stripe_id,
            "chunk_id": self.chunk_id,
            "rows_needed": sorted(self.rows_needed),
            "rows": self.rows,
            "chunk_size": self.chunk_size,
            "requester": self.requester,
        }

    @classmethod
    def from_wire(cls, data: "Dict[str, Any]") -> "RawReadRequest":
        return cls(
            repair_id=data["repair_id"],
            stripe_id=data["stripe_id"],
            chunk_id=data["chunk_id"],
            rows_needed=frozenset(int(r) for r in data["rows_needed"]),
            rows=int(data["rows"]),
            chunk_size=float(data["chunk_size"]),
            requester=data["requester"],
        )


@dataclass
class PartialPayload:
    """Bulk payload of a partial-result transfer: lost_row -> buffer."""

    repair_id: str
    sender: str
    buffers: "Dict[int, np.ndarray]"
    #: Which pipeline slice this payload carries (0 when unsliced).
    slice_index: int = 0
    #: Bytes per whole row (STREAM_BEGIN's ``row_len``): how a node
    #: without a local chunk learns the slicing.
    row_len: int = 0


@dataclass
class RawPayload:
    """Bulk payload of a raw-rows transfer: helper_row -> buffer."""

    repair_id: str
    sender: str
    chunk_index: int
    buffers: "Dict[int, np.ndarray]"


@dataclass(frozen=True)
class Heartbeat:
    """Chunk server -> Meta-Server liveness + statistics (every 5 s)."""

    server_id: str
    time: float
    cached_chunk_ids: "FrozenSet[str]"
    active_reconstructions: int
    active_repair_destinations: int
    user_load_bytes: float
    disk_queue_delay: float

    def to_wire(self) -> "Dict[str, Any]":
        return {
            "server_id": self.server_id,
            "time": self.time,
            "cached_chunk_ids": sorted(self.cached_chunk_ids),
            "active_reconstructions": self.active_reconstructions,
            "active_repair_destinations": self.active_repair_destinations,
            "user_load_bytes": self.user_load_bytes,
            "disk_queue_delay": self.disk_queue_delay,
        }

    @classmethod
    def from_wire(cls, data: "Dict[str, Any]") -> "Heartbeat":
        return cls(
            server_id=data["server_id"],
            time=float(data["time"]),
            cached_chunk_ids=frozenset(data["cached_chunk_ids"]),
            active_reconstructions=int(data["active_reconstructions"]),
            active_repair_destinations=int(data["active_repair_destinations"]),
            user_load_bytes=float(data["user_load_bytes"]),
            disk_queue_delay=float(data["disk_queue_delay"]),
        )


# ----------------------------------------------------------------------
# Shared GF helpers: the exact math both execution layers run
# ----------------------------------------------------------------------
def extract_rows(
    payload: np.ndarray, rows: int, rows_needed: "FrozenSet[int]"
) -> "Dict[int, np.ndarray]":
    """The helper rows a raw transfer ships: ``row -> buffer`` copies."""
    stacked = split_rows(payload, rows)
    return {int(row): stacked[row].copy() for row in sorted(rows_needed)}


# ----------------------------------------------------------------------
# Recipe wire form (the live raw-collection plan embeds the full recipe)
# ----------------------------------------------------------------------
def recipe_to_wire(recipe: "Any") -> "Dict[str, Any]":
    """Serialize a :class:`~repro.codes.recipe.RepairRecipe`."""
    return {
        "lost": recipe.lost,
        "rows": recipe.rows,
        "terms": [
            [term.helper, [list(entry) for entry in term.entries]]
            for term in recipe.terms
        ],
    }


def recipe_from_wire(data: "Dict[str, Any]") -> "Any":
    terms: "List[Any]" = []
    for helper, entries in data["terms"]:
        terms.append(
            RecipeTerm(
                helper=int(helper),
                entries=tuple(
                    (int(a), int(b), int(c)) for a, b, c in entries
                ),
            )
        )
    return RepairRecipe(
        lost=int(data["lost"]), rows=int(data["rows"]), terms=tuple(terms)
    )
