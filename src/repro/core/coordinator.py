"""Repair coordination: turn a lost chunk into a running reconstruction.

This is the execution half of the Repair-Manager (§6.2): compute the
decoding coefficients, build the communication plan for the requested
strategy, and distribute plan commands — to the destination only (raw
plans: star / staggered, whose destination then pulls raw chunks step by
step), or to the aggregators and the repair site (partial plans: PPR /
chain), which forward leaf commands to their downstream peers.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from repro import obs
from repro.obs import causal
from repro.errors import PlanError, StorageError, UnrecoverableError
from repro.core.context import RepairContext
from repro.core.results import RepairResult
from repro.fs.chunks import Stripe
from repro.fs.messages import PartialOpRequest
from repro.fs.node import RawCollectionTask
from repro.repair.plan import (
    DESTINATION,
    RepairPlan,
    build_plan,
    build_ppr_plan,
    ppr_position_loads,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.cluster import StorageCluster


def build_partial_requests(
    plan: RepairPlan,
    *,
    repair_id: str,
    stripe_id: str,
    chunk_ids: "List[str]",
    chunk_size: float,
    node_id_for: "Callable[[int], str]",
    num_slices: int = 1,
) -> "Dict[int, PartialOpRequest]":
    """Turn a partial-result plan into per-node plan commands (§6.2).

    ``node_id_for`` maps a plan node (helper chunk index or
    :data:`DESTINATION`) to the server that plays it.  Shared between the
    simulator's coordinator and the live TCP coordinator, so both
    deployments distribute byte-for-byte the same ``PartialOpRequest``s.
    """
    recipe = plan.recipe
    requests: "Dict[int, PartialOpRequest]" = {}
    for plan_node in plan.participants:
        children = tuple(
            node_id_for(c) for c in plan.children_of(plan_node)
        )
        outgoing = plan.outgoing(plan_node)
        if plan_node == DESTINATION:
            parent: "Optional[str]" = None
            send_rows: "frozenset[int]" = frozenset()
            send_fraction = 0.0
        else:
            if len(outgoing) != 1:
                raise PlanError(
                    f"PPR node {plan_node} must send exactly once"
                )
            transfer = outgoing[0]
            parent = node_id_for(transfer.dst)
            send_rows = transfer.rows
            send_fraction = transfer.fraction
        if plan_node == DESTINATION:
            chunk_id, entries, read_fraction = None, (), 0.0
        else:
            chunk_id = chunk_ids[plan_node]
            entries = recipe.term_for(plan_node).entries
            read_fraction = recipe.read_fraction(plan_node)
        requests[plan_node] = PartialOpRequest(
            repair_id=repair_id,
            stripe_id=stripe_id,
            chunk_id=chunk_id,
            entries=entries,
            rows=recipe.rows,
            chunk_size=chunk_size,
            children=children,
            parent=parent,
            send_rows=send_rows,
            send_fraction=send_fraction,
            read_fraction=read_fraction,
            num_slices=num_slices,
        )
    return requests


class RepairCoordinator:
    """Builds and launches reconstruction plans on a cluster."""

    def __init__(self, cluster: "StorageCluster"):
        self.cluster = cluster
        #: Real wall-clock seconds spent building plans (for §7.6).
        self.plan_wall_seconds: "List[float]" = []
        #: Control messages sent per repair (the paper's 1 + k/2 figure).
        self.plan_messages: "List[int]" = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def start_repair(
        self,
        stripe: Stripe,
        lost_index: int,
        strategy: str,
        destination: "Optional[str]" = None,
        kind: str = "repair",
        helper_indices: "Optional[Iterable[int]]" = None,
        on_complete: "Optional[Callable[[RepairResult], None]]" = None,
        num_slices: int = 1,
        capacity_aware: bool = False,
    ) -> RepairContext:
        """Schedule one reconstruction; returns its context immediately.

        ``destination`` is a chunk-server id (regular repair) or a client
        id (degraded read); ``None`` picks a reliability-eligible server
        automatically.  ``helper_indices`` optionally restricts which
        surviving chunks may participate (m-PPR's source selection).
        ``capacity_aware`` enables §4.2's heterogeneous extension: PPR
        aggregator positions go to the servers with the fastest links.
        """
        meta = self.cluster.metaserver
        available = meta.alive_host_indices(stripe)
        available.pop(lost_index, None)
        if helper_indices is not None:
            wanted = set(helper_indices)
            available = {
                i: host for i, host in available.items() if i in wanted
            }
        if not available:
            raise UnrecoverableError(
                f"no surviving chunks for {stripe.stripe_id}#{lost_index}"
            )

        wall_start = _time.perf_counter()
        recipe = stripe.code.repair_recipe(lost_index, available.keys())
        if capacity_aware and strategy == "ppr":
            order = self._capacity_order(recipe, available)
            plan = build_ppr_plan(recipe, helper_order=order)
        else:
            plan = build_plan(strategy, recipe)
        self.plan_wall_seconds.append(_time.perf_counter() - wall_start)

        helper_servers = {i: available[i] for i in recipe.helpers}
        if destination is None:
            destination = self._choose_destination(stripe, helper_servers)
        if destination in helper_servers.values():
            raise PlanError(
                f"destination {destination} already hosts a helper chunk"
            )
        lost_chunk_id = stripe.chunk_ids[lost_index]
        context = RepairContext(
            cluster=self.cluster,
            repair_id=self.cluster.new_repair_id(),
            stripe=stripe,
            lost_index=lost_index,
            strategy=strategy,
            kind=kind,
            recipe=recipe,
            helper_servers=helper_servers,
            destination=destination,
            expected_payload=self.cluster.truth_payload(lost_chunk_id),
            on_complete=on_complete,
            # Raw plans move whole rows: slicing applies to partial plans.
            num_slices=1 if plan.raw else num_slices,
        )
        self.cluster.register_repair(context)

        if kind == "repair":
            dest_server = self.cluster.servers.get(destination)
            if dest_server is not None:
                dest_server.active_repair_destinations += 1

        # RM-side computation before any message goes out: decoding-matrix
        # inversion + plan construction (measured at 5.3–8.7 ms in §7.6).
        k = len(recipe.helpers)
        rm_delay = self.cluster.compute.inversion_time(max(k, 2))
        plan_start = self.cluster.sim.now

        def distribute() -> None:
            context.record_phase(
                "plan", plan_start, self.cluster.sim.now, node_id="rm"
            )
            if plan.raw:
                self._start_raw(context, plan)
            else:
                self._distribute_partial(context, plan)

        if obs.tracer() is not None:
            # Bind this repair's causal context so every event transitively
            # scheduled by the plan distribution — control messages, disk
            # ops, flows — carries (trace_id, spawning span) with it; the
            # sim event loop rebinds it around each callback.
            ctx = causal.SpanContext(
                trace_id=context.trace_id,
                span_id=f"rm:{context.repair_id}",
            )
            with causal.bound(ctx):
                self.cluster.sim.schedule(rm_delay, distribute)
        else:
            self.cluster.sim.schedule(rm_delay, distribute)
        return context

    def _capacity_order(
        self, recipe, available: "Dict[int, str]"
    ) -> "List[int]":
        """Assign high-capacity helper servers to busy tree positions.

        §4.2: "If servers have non-homogeneous network capacity, PPR can
        be extended to use servers with higher network capacity as
        aggregators, since these servers often handle multiple flows."
        """
        helpers = list(recipe.helpers)
        loads = ppr_position_loads(len(helpers))

        def capacity(chunk_index: int) -> float:
            server = available[chunk_index]
            link = self.cluster.topology.egress.get(server)
            return link.capacity if link is not None else 0.0

        by_capacity = sorted(helpers, key=capacity, reverse=True)
        positions_by_load = sorted(
            range(len(helpers)), key=lambda p: loads[p], reverse=True
        )
        order: "List[Optional[int]]" = [None] * len(helpers)
        for position, helper in zip(positions_by_load, by_capacity):
            order[position] = helper
        return [h for h in order if h is not None]

    def _choose_destination(
        self, stripe: Stripe, helper_servers: "Dict[int, str]"
    ) -> str:
        """Pick a repair site with progressively relaxed constraints.

        Tier 1: placement-eligible (no stripe host, no shared failure /
        upgrade domain — §5's reliability rule).  Tier 2: any alive server
        not hosting a chunk of this stripe.  Tier 3 (wide stripes on small
        clusters): any alive server not hosting a *helper* chunk.
        """
        meta = self.cluster.metaserver
        hosts = [
            host
            for host in (meta.locate_chunk(cid) for cid in stripe.chunk_ids)
            if host is not None
        ]
        alive = self.cluster.alive_servers()
        eligible = self.cluster.placement.eligible_destinations(alive, hosts)
        if not eligible:
            eligible = [s for s in alive if s not in hosts]
        if not eligible:
            used = set(helper_servers.values())
            eligible = [s for s in alive if s not in used]
        if not eligible:
            raise StorageError(
                f"no server can host the repair of {stripe.stripe_id}"
            )
        return eligible[0]

    # ------------------------------------------------------------------
    # Partial-plan distribution (§6.2; covers PPR trees and chains)
    # ------------------------------------------------------------------
    def _node_id_for(self, context: RepairContext, plan_node: int) -> str:
        if plan_node == DESTINATION:
            return context.destination
        return context.helper_servers[plan_node]

    def _distribute_partial(self, context: RepairContext, plan: RepairPlan) -> None:
        requests = build_partial_requests(
            plan,
            repair_id=context.repair_id,
            stripe_id=context.stripe.stripe_id,
            chunk_ids=context.stripe.chunk_ids,
            chunk_size=context.chunk_size,
            node_id_for=lambda n: self._node_id_for(context, n),
            num_slices=context.num_slices,
        )

        aggregators = [
            node
            for node in plan.participants
            if plan.children_of(node) or node == DESTINATION
        ]
        agg_ids = {self._node_id_for(context, n) for n in aggregators}
        # Leaves receive their command from their parent aggregator.
        leaf_count = 0
        for plan_node in plan.participants:
            if plan_node == DESTINATION or plan.children_of(plan_node):
                continue
            outgoing = plan.outgoing(plan_node)
            parent_id = self._node_id_for(context, outgoing[0].dst)
            leaf_id = self._node_id_for(context, plan_node)
            context.leaf_requests.setdefault(parent_id, []).append(
                (leaf_id, requests[plan_node])
            )
            leaf_count += 1

        # The RM's plan messages go to aggregators + the repair site.
        self.plan_messages.append(len(aggregators))
        for plan_node in aggregators:
            node_id = self._node_id_for(context, plan_node)
            node = self.cluster.node(node_id)
            self.cluster.send_control(
                node_id, node.handle_partial_request, requests[plan_node]
            )

    # ------------------------------------------------------------------
    # Raw plans (star / staggered)
    # ------------------------------------------------------------------
    def _start_raw(self, context: RepairContext, plan: RepairPlan) -> None:
        self.plan_messages.append(1)
        node = self.cluster.node(context.destination)

        def begin() -> None:
            RawCollectionTask(node, context, plan)

        self.cluster.send_control(context.destination, begin)
