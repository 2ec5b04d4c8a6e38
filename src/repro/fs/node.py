"""Storage nodes and the reconstruction state machines they run.

:class:`StorageNode` is anything attached to the network (chunk server or
client).  Two task types implement the paper's repair execution paths:

* :class:`PartialAggregationTask` — the PPR protocol of §6.2 at one node:
  read + scale the local chunk (overlapping disk IO with network, §6.3),
  XOR in downstream partials as they arrive, and forward the aggregate to
  the upstream peer (or finish, at the repair site).  Merge, slice
  readiness and assembly are :class:`~repro.repair.aggregate.Aggregation`,
  the same core the live chunk server drives; this task only schedules
  them in virtual time.
* :class:`RawCollectionTask` — a raw plan (star/staggered) at the
  destination: fetch raw rows from every helper, one plan step at a
  time, and decode centrally.

All bulk payloads are real numpy buffers, so every reconstruction is
verifiable; all timing uses modeled byte counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from repro.errors import SimulationError
from repro.fs.messages import (
    PartialOpRequest,
    PartialPayload,
    RawPayload,
    compute_partial,
)
from repro.repair.aggregate import LOCAL, Aggregation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.cluster import StorageCluster
    from repro.core.context import RepairContext
    from repro.repair.plan import RepairPlan


class StorageNode:
    """A network-attached participant: id, compute serialization, flows."""

    def __init__(self, cluster: "StorageCluster", node_id: str):
        self.cluster = cluster
        self.sim = cluster.sim
        self.node_id = node_id
        self.alive = True
        self._compute_busy_until = 0.0
        #: repair_id -> task awaiting flows at this node.
        self.tasks: "Dict[str, object]" = {}

    # ------------------------------------------------------------------
    # Compute resource: repair math serializes on one core per node
    # ------------------------------------------------------------------
    def schedule_compute(self, duration: float, callback, *args) -> float:
        """Queue ``duration`` seconds of computation; fire callback after.

        Returns the completion time.  Also records the busy interval so the
        context can attribute it to the compute phase.
        """
        start = max(self.sim.now, self._compute_busy_until)
        finish = start + duration
        self._compute_busy_until = finish
        self.sim.schedule_at(finish, callback, *args)
        return finish

    # ------------------------------------------------------------------
    # Protocol entry points
    # ------------------------------------------------------------------
    def handle_partial_request(self, request: PartialOpRequest) -> None:
        """Start this node's role in a PPR reduction (§6.2).

        Valid on any node: chunk servers read + scale a local chunk; pure
        aggregators and repair destinations (including degraded-read
        clients) have ``request.chunk_id is None`` and only merge.
        """
        context = self.cluster.repair_context(request.repair_id)
        if context is None:
            return  # repair cancelled before the plan arrived
        PartialAggregationTask(self, context, request)

    def task_finished(self, repair_id: str) -> None:
        """Hook: a reconstruction task at this node completed."""

    # ------------------------------------------------------------------
    # Flow delivery
    # ------------------------------------------------------------------
    def deliver(self, payload: object) -> None:
        """A bulk transfer addressed to this node has fully arrived."""
        if isinstance(payload, (PartialPayload, RawPayload)):
            task = self.tasks.get(payload.repair_id)
            if task is None:
                return  # repair was cancelled/rescheduled; drop silently
            task.on_payload(payload)  # type: ignore[attr-defined]
            return
        raise SimulationError(f"unroutable payload {payload!r} at {self.node_id}")


def _partial_modeled_bytes(
    rows_held: "Set[int]", rows: int, chunk_size: float, num_slices: int
) -> float:
    """Modeled bytes one slice of a partial with ``rows_held`` occupies."""
    if not rows_held:
        return 0.0
    return len(rows_held) / rows * chunk_size / num_slices


class PartialAggregationTask:
    """One node's role in a PPR/chain reduction (§6.2 state machine).

    Slice-aware: with ``request.num_slices == S > 1`` the chunk is cut
    into S slices that flow through the plan independently, so a node
    forwards slice ``s`` as soon as its own read and every child's slice
    ``s`` are in — the repair-pipelining extension.  ``S == 1`` reproduces
    the paper's store-and-forward PPR exactly.  The bytes live in an
    :class:`~repro.repair.aggregate.Aggregation`; this shell schedules the
    reads, compute and transfers in virtual time and keeps the §4.3
    modeled-buffer account.
    """

    def __init__(
        self,
        node: StorageNode,
        context: "RepairContext",
        request: PartialOpRequest,
    ):
        self.node = node
        self.context = context
        self.request = request
        self.slices = max(1, request.num_slices)
        self.agg = Aggregation(
            request.rows, self.slices, request.children, bool(request.chunk_id)
        )
        #: Per slice, the rows held: what the modeled buffer bytes count.
        self.slice_rows: "List[Set[int]]" = [set() for _ in range(self.slices)]
        self.completed_slices = 0
        self.done = False
        self._local_partial: "Optional[Dict[int, np.ndarray]]" = None
        node.tasks[request.repair_id] = self
        context.register_task(self)
        self._start()

    # -- startup -------------------------------------------------------
    def _start(self) -> None:
        req = self.request
        # Forward plan commands to downstream leaf peers first, so their
        # reads/transfers overlap the local disk read (§6.3 pipelining).
        self.context.send_leaf_requests(self.node.node_id)
        if req.chunk_id is not None:
            self._begin_local_reads()
        if not self.agg.contributors:
            for index in range(self.slices):
                self._slice_complete(index)

    def _begin_local_reads(self) -> None:
        req = self.request
        chunkserver = self.node  # only chunk servers host chunks
        total_read = req.read_fraction * req.chunk_size
        hit = chunkserver.lookup_cache(req.chunk_id)  # type: ignore[attr-defined]
        if hit:
            self.context.record_cache_hit()
            for index in range(self.slices):
                self._local_slice_ready(index)
            return
        for index in range(self.slices):
            start = self.node.sim.now

            def on_read_done(index: int = index, start: float = start) -> None:
                if index == self.slices - 1:
                    chunkserver.fill_cache(req.chunk_id)  # type: ignore[attr-defined]
                self.context.record_slice(
                    "disk_read",
                    "disk_read",
                    start,
                    self.node.sim.now,
                    node_id=self.node.node_id,
                    nbytes=total_read / self.slices,
                )
                self._local_slice_ready(index)

            chunkserver.disk.read(  # type: ignore[attr-defined]
                total_read / self.slices, on_read_done
            )

    def _ensure_local_partial(self) -> "Dict[int, np.ndarray]":
        """Compute the full local partial once (real math; timing is
        charged per slice by the callers).

        Driven by the plan command's own ``entries`` — the same code path
        a live chunk server runs on a :class:`PartialOpRequest` received
        over TCP, so simulated and live repairs share their GF math.
        """
        if self._local_partial is None:
            req = self.request
            chunk = self.node.get_chunk(req.chunk_id)  # type: ignore[attr-defined]
            self._local_partial = compute_partial(
                req.entries, req.rows, chunk.payload
            )
            self.agg.set_row_len(chunk.payload.size // req.rows)
        return self._local_partial

    def _local_slice_ready(self, index: int) -> None:
        req = self.request
        read_bytes = req.read_fraction * req.chunk_size / self.slices
        duration = self.context.compute.multiply_time(read_bytes)
        compute_start = self.node.sim.now

        def on_multiplied() -> None:
            if self.done or not self.node.alive:
                return  # the server died under us; the RM will reschedule
            self.context.record_slice(
                "compute",
                "multiply",
                compute_start,
                self.node.sim.now,
                node_id=self.node.node_id,
                after="disk_read",
                op="multiply",
            )
            local = self._ensure_local_partial()
            self._merge(LOCAL, index, self.agg.segments(index, local), 0.0)

        self.node.schedule_compute(duration, on_multiplied)

    # -- downstream partials -------------------------------------------
    def on_payload(self, payload: PartialPayload) -> None:
        if self.done:
            return
        index = payload.slice_index
        nbytes = (
            len(payload.buffers)
            / self.request.rows
            * self.request.chunk_size
            / self.slices
        )
        duration = self.context.compute.xor_time(nbytes)
        start = self.node.sim.now
        self.context.note_buffer(self.node.node_id, nbytes)

        def on_xored() -> None:
            if self.done or not self.node.alive:
                return
            self.context.record_slice(
                "compute",
                f"xor<{payload.sender}",
                start,
                self.node.sim.now,
                node_id=self.node.node_id,
                after=f"network<{payload.sender}",
                op="xor",
                nbytes=nbytes,
            )
            self.agg.set_row_len(payload.row_len)
            # The receive buffer is folded into the partial.
            self._merge(payload.sender, index, payload.buffers, nbytes)

        self.node.schedule_compute(duration, on_xored)

    def _merge(
        self,
        sender: "Optional[str]",
        index: int,
        buffers: "Dict[int, np.ndarray]",
        received: float,
    ) -> None:
        """Merge one contribution to slice ``index``; ``received`` modeled
        bytes of receive buffer are released into the partial."""
        req = self.request
        held = self.slice_rows[index]
        before = _partial_modeled_bytes(held, req.rows, req.chunk_size, self.slices)
        if not self.agg.merge(sender, index, index, buffers):
            return
        held.update(buffers)
        after = _partial_modeled_bytes(held, req.rows, req.chunk_size, self.slices)
        self.context.note_buffer(self.node.node_id, (after - before) - received)
        if self.agg.ready(index):
            self._slice_complete(index)

    # -- completion ------------------------------------------------------
    def _slice_complete(self, index: int) -> None:
        if not self.node.alive:
            return
        req = self.request
        if req.parent is not None:
            payload = PartialPayload(
                repair_id=req.repair_id,
                sender=self.node.node_id,
                buffers=self.agg.segments(index),
                slice_index=index,
                row_len=self.agg.row_len,
            )
            self.context.start_transfer(
                src=self.node.node_id,
                dst=req.parent,
                nbytes=req.send_fraction * req.chunk_size / self.slices,
                payload=payload,
            )
            self.context.note_buffer(
                self.node.node_id,
                -_partial_modeled_bytes(
                    self.slice_rows[index], req.rows, req.chunk_size, self.slices
                ),
            )
        self.completed_slices += 1
        if self.completed_slices < self.slices:
            return
        self.done = True
        self.node.tasks.pop(req.repair_id, None)
        self.node.task_finished(req.repair_id)
        if req.parent is None:
            # This node is the repair destination.
            self.context.finish_at_destination(self.node, self.agg.assemble())


class RawCollectionTask:
    """A raw plan (star, staggered) at the destination: each plan step's
    fetches go out once the previous step's have all arrived."""

    def __init__(
        self,
        node: StorageNode,
        context: "RepairContext",
        plan: "RepairPlan",
    ):
        self.node = node
        self.context = context
        self.raw: "Dict[int, Dict[int, np.ndarray]]" = {}
        #: Helper chunk indices per plan step still to fetch, in order.
        self.pending: "List[List[int]]" = [
            [t.src for t in plan.transfers_at(step)]
            for step in range(plan.num_steps)
        ]
        self.outstanding = 0
        self.done = False
        node.tasks[context.repair_id] = self
        context.register_task(self)
        self._issue_requests()

    def _issue_requests(self) -> None:
        for helper_index in self.pending.pop(0):
            self.outstanding += 1
            self.context.send_raw_read(helper_index, self.node.node_id)

    def on_payload(self, payload: RawPayload) -> None:
        if self.done:
            return
        self.raw[payload.chunk_index] = payload.buffers
        self.context.note_buffer(
            self.node.node_id,
            self.context.recipe.raw_fraction(payload.chunk_index)
            * self.context.chunk_size,
        )
        self.outstanding -= 1
        if self.outstanding:
            return
        if self.pending:
            self._issue_requests()
        else:
            self._decode()

    def _decode(self) -> None:
        self.done = True
        context = self.context
        self.node.tasks.pop(context.repair_id, None)
        k = len(context.recipe.helpers)
        total_bytes = context.recipe.total_raw_fraction() * context.chunk_size
        # Table 2's serial critical path: k multiplies + k XORs over the
        # gathered data.
        duration = context.compute.multiply_time(total_bytes / max(k, 1)) * k
        duration += context.compute.xor_time(total_bytes / max(k, 1)) * k
        start = self.node.sim.now

        def on_decoded() -> None:
            if not self.node.alive:
                return  # destination died; the RM timeout reschedules
            context.record_phase(
                "compute",
                start,
                self.node.sim.now,
                node_id=self.node.node_id,
                op="decode",
                nbytes=total_bytes,
            )
            chunk_payload = context.recipe.execute_rows(self.raw)
            context.finish_at_destination(self.node, chunk_payload)

        self.node.schedule_compute(duration, on_decoded)
