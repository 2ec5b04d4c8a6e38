"""The live Repair-Manager: plans repairs and drives them over TCP.

Planning is byte-for-byte the simulator's: the same
:func:`repro.codes.registry.make_code` codec, the same
:meth:`~repro.codes.base.ErasureCode.repair_recipe` coefficients, the
same :func:`repro.repair.plan.build_plan` topology, and — for PPR — the
same :func:`repro.core.coordinator.build_partial_requests` plan commands.
Only the transport differs: commands go out as
:data:`~repro.live.wire.MessageType.PARTIAL_OP` /
:data:`~repro.live.wire.MessageType.START_RAW_REPAIR` RPCs, and the
destination's answer to the completion call
(:data:`~repro.live.wire.MessageType.REPAIR_RESULT`, or the deferred
``START_RAW_REPAIR`` response) carries the rebuilt chunk back.

Failure handling is an *attempt loop* (bounded by
``LiveConfig.max_attempts``): when an attempt dies — a peer unreachable,
the destination reporting missing partials, the whole attempt timing out
— the coordinator broadcasts ``REPAIR_ABORT``, pings the participants to
find who is actually dead, excludes the suspects, and replans from the
survivors.  Exhausting the budget raises
:class:`~repro.errors.LiveRepairError` rather than hanging.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.codes.registry import make_code
from repro.core.coordinator import build_partial_requests
from repro.core.results import RepairResult
from repro.errors import (
    LiveRepairError,
    RpcError,
    RpcRemoteError,
    UnrecoverableError,
)
from repro.fs.messages import recipe_to_wire
from repro import obs
from repro.live import trace
from repro.live.config import TELEMETRY_CAPACITY, LiveConfig
from repro.live.rpc import Address, RpcClientPool
from repro.live.wire import Frame, MessageType
from repro.obs import causal
from repro.obs.collector import TelemetryShipper
from repro.obs.metrics import Histogram
from repro.obs.timeseries import TimeSeriesStore
from repro.qos.slo import QOS_BUCKETS
from repro.repair.plan import DESTINATION, RepairPlan, build_plan
from repro.sim.metrics import PhaseBreakdown


@dataclass
class LiveAttempt:
    """What one repair attempt is about to do (handed to ``on_attempt``)."""

    attempt: int
    repair_id: str
    strategy: str
    lost_index: int
    helper_servers: "Dict[int, str]"
    destination: str
    aggregators: "List[str]"


@dataclass
class LiveRepairReport:
    """Outcome of a live repair: the bytes plus the measurements."""

    result: RepairResult
    payload: np.ndarray
    breakdown: PhaseBreakdown
    attempts: int
    excluded: "Set[str]" = field(default_factory=set)


class _AttemptFailed(Exception):
    """Internal: one attempt died; carries the prime suspects."""

    def __init__(self, cause: Exception, suspects: "Set[str]"):
        super().__init__(str(cause))
        self.cause = cause
        self.suspects = suspects
        #: Filled by ``_attempt`` before re-raising: which repair died
        #: and who took part, so the replan loop can run a DOCTOR round
        #: (stall blame) in addition to the PING round.
        self.repair_id: "Optional[str]" = None
        self.participants: "Dict[str, Address]" = {}


@dataclass
class _StripeView:
    """The meta-server's answer to LOCATE_STRIPE, parsed."""

    stripe_id: str
    spec: str
    chunk_ids: "List[str]"
    chunk_size: float
    payload_len: int
    #: chunk index -> (server id, address), live hosts only.
    hosts: "Dict[int, Tuple[str, Address]]"


class LiveCoordinator:
    """Plans and runs reconstructions against a live cluster."""

    def __init__(
        self,
        meta_address: Address,
        config: "Optional[LiveConfig]" = None,
    ):
        self.meta_address = meta_address
        self.config = config or LiveConfig()
        self.pool = RpcClientPool(self.config)
        self._repair_seq = itertools.count(1)
        self._gids = causal.GidAllocator("coordinator")
        #: End-to-end repair durations (mergeable at the collector) and
        #: the per-repair duration series the coordinator pushes.
        self.repair_latency = Histogram(
            "live.repair.latency", {"node": "coordinator"}, QOS_BUCKETS
        )
        self.telemetry = TimeSeriesStore(capacity=TELEMETRY_CAPACITY)
        self._shipper: "Optional[TelemetryShipper]" = (
            TelemetryShipper(
                "coordinator",
                self.telemetry,
                hists=lambda: [self.repair_latency.snapshot()],
            )
            if self.config.collector_enabled
            else None
        )

    async def close(self) -> None:
        await self.pool.close()

    @staticmethod
    async def _with_ctx(ctx: "Optional[causal.SpanContext]", coro):
        """Await ``coro`` with ``ctx`` as the active causal context.

        The context rides asyncio's contextvars into every RPC the
        attempt makes (and into tasks those spawn), which is how the
        trace id reaches all participants.
        """
        if ctx is None:
            return await coro
        token = causal.activate(ctx)
        try:
            return await coro
        finally:
            causal.restore(token)

    # ------------------------------------------------------------------
    # Metadata lookups
    # ------------------------------------------------------------------
    async def locate_stripe(self, stripe_id: str) -> _StripeView:
        client = self.pool.get(self.meta_address)
        response = await client.call(
            MessageType.LOCATE_STRIPE, {"stripe_id": stripe_id}
        )
        stripe = dict(response.payload["stripe"])  # type: ignore[arg-type]
        chunk_ids = [str(c) for c in stripe["chunk_ids"]]  # type: ignore[union-attr]
        locations = dict(response.payload["locations"])  # type: ignore[arg-type]
        hosts: "Dict[int, Tuple[str, Address]]" = {}
        for index, chunk_id in enumerate(chunk_ids):
            spot = locations.get(chunk_id)
            if spot is None:
                continue
            hosts[index] = (
                str(spot["server_id"]),
                Address.from_wire(spot["address"]),
            )
        return _StripeView(
            stripe_id=stripe_id,
            spec=str(stripe["spec"]),
            chunk_ids=chunk_ids,
            chunk_size=float(stripe["chunk_size"]),  # type: ignore[arg-type]
            payload_len=int(stripe["payload_len"]),  # type: ignore[arg-type]
            hosts=hosts,
        )

    async def list_servers(self) -> "Dict[str, Address]":
        """Servers the meta-server currently believes alive."""
        client = self.pool.get(self.meta_address)
        response = await client.call(MessageType.LIST_SERVERS, {})
        alive = {str(s) for s in list(response.payload["alive"])}  # type: ignore[arg-type]
        return {
            sid: Address.from_wire(addr)  # type: ignore[arg-type]
            for sid, addr in dict(response.payload["servers"]).items()  # type: ignore[arg-type]
            if sid in alive
        }

    # ------------------------------------------------------------------
    # The repair entry point
    # ------------------------------------------------------------------
    async def repair(
        self,
        stripe_id: str,
        lost_index: "Optional[int]" = None,
        strategy: str = "ppr",
        destination: "Optional[str]" = None,
        expected_payload: "Optional[np.ndarray]" = None,
        on_attempt: "Optional[Callable[[LiveAttempt], object]]" = None,
        num_slices: int = 1,
    ) -> LiveRepairReport:
        """Repair one lost chunk; replans around dead peers.

        ``lost_index`` defaults to the first chunk with no live host.
        ``on_attempt`` (sync or async) observes each attempt before its
        plan commands go out — the failure tests use it to kill servers
        at deterministic points.  Every ppr/chain hop is a stream of
        ``num_slices`` pipelined slices (one slice moves whole rows;
        docs/PIPELINING.md); star/staggered move whole rows regardless
        and ignore it.
        """
        if num_slices < 1:
            raise LiveRepairError(f"num_slices must be >= 1, got {num_slices}")
        repair_start = trace.now()
        excluded: "Set[str]" = set()
        failures: "List[Exception]" = []
        for attempt in range(1, self.config.max_attempts + 1):
            view = await self.locate_stripe(stripe_id)
            if lost_index is None:
                lost_index = self._find_lost_index(view)
            try:
                report = await self._attempt(
                    view,
                    lost_index,
                    strategy,
                    destination,
                    excluded,
                    attempt,
                    on_attempt,
                    num_slices,
                )
            except _AttemptFailed as failure:
                failures.append(failure.cause)
                obs.registry().counter(
                    "live.repair.replans", stripe=stripe_id
                ).inc()
                suspects = failure.suspects | await self._ping_suspects(view)
                if failure.repair_id and failure.participants:
                    suspects |= await self._doctor_suspects(
                        failure.participants, failure.repair_id
                    )
                excluded |= suspects
                continue
            report.attempts = attempt
            report.excluded = set(excluded)
            if expected_payload is not None:
                report.result.verified = bool(
                    np.array_equal(report.payload, expected_payload)
                )
            done = trace.now()
            duration = done - repair_start
            self.repair_latency.observe(duration)
            self.telemetry.record(
                "live.repair.duration",
                done,
                duration,
                node="coordinator",
                strategy=strategy,
            )
            await self._push_telemetry()
            return report
        summary = "; ".join(f"{type(e).__name__}: {e}" for e in failures)
        raise LiveRepairError(
            f"repair of {stripe_id}#{lost_index} failed after "
            f"{self.config.max_attempts} attempts ({summary})"
        )

    async def _push_telemetry(self) -> None:
        """Push repair telemetry to the collector after each repair.

        The coordinator has no heartbeat loop, so its shipping cadence
        is "one batch per completed repair".  Same bounded-queue
        semantics as the chunk servers; an unreachable collector never
        fails a repair.
        """
        if self._shipper is None:
            return
        self._shipper.collect(trace.now())
        client = self.pool.get(self.meta_address)
        while True:
            batch = self._shipper.next_batch()
            if batch is None:
                return
            try:
                await client.call(
                    MessageType.TELEMETRY,
                    batch,
                    timeout=self.config.rpc_timeout,
                    retries=0,
                )
            except RpcError:
                return  # stays queued; retried after the next repair
            self._shipper.mark_sent()

    def _find_lost_index(self, view: _StripeView) -> int:
        for index in range(len(view.chunk_ids)):
            if index not in view.hosts:
                return index
        raise LiveRepairError(
            f"stripe {view.stripe_id} has no missing chunk to repair"
        )

    async def _ping_suspects(self, view: _StripeView) -> "Set[str]":
        """Servers of this stripe that no longer answer a PING."""
        suspects: "Set[str]" = set()

        async def probe(server_id: str, address: Address) -> None:
            client = self.pool.get(address)
            try:
                await client.call(
                    MessageType.PING,
                    {},
                    timeout=self.config.connect_timeout,
                    retries=0,
                )
            except RpcError:
                suspects.add(server_id)

        await asyncio.gather(
            *(probe(sid, addr) for sid, addr in view.hosts.values())
        )
        return suspects

    async def _doctor_suspects(
        self, participants: "Dict[str, Address]", repair_id: str
    ) -> "Set[str]":
        """Stall blame for one failed attempt, from the fleet's doctors.

        Each participant's ``DOCTOR`` endpoint reports its
        stalled-stream anomalies for this repair; an anomaly blames the
        stream's direct sender (``src``).  In a pipelined chain the
        stall cascades, so every downstream node ends up blaming its
        own sender — the true culprit is a *blamed sender that did not
        itself report a stalled inbound stream*.  A wedged-but-alive
        helper still answers PING, so only this round can implicate it.
        """
        blamed: "Set[str]" = set()
        cleared: "Set[str]" = set()

        async def probe(server_id: str, address: Address) -> None:
            client = self.pool.get(address)
            try:
                response = await client.call(
                    MessageType.DOCTOR,
                    {"repair_id": repair_id},
                    timeout=self.config.connect_timeout,
                    retries=0,
                )
            except RpcError:
                return  # unreachable peers are the PING round's job
            for anomaly in list(response.payload.get("anomalies", [])):  # type: ignore[arg-type]
                if not isinstance(anomaly, dict):
                    continue
                if anomaly.get("detector") != "stalled-stream":
                    continue
                src = str(dict(anomaly.get("data", {})).get("src", ""))
                if src:
                    blamed.add(src)
                # This node is itself waiting on a wedged sender: it is
                # a victim of the cascade, not the culprit.
                cleared.add(server_id)

        await asyncio.gather(
            *(probe(sid, addr) for sid, addr in participants.items())
        )
        return blamed - cleared

    # ------------------------------------------------------------------
    # One attempt
    # ------------------------------------------------------------------
    async def _attempt(
        self,
        view: _StripeView,
        lost_index: int,
        strategy: str,
        destination: "Optional[str]",
        excluded: "Set[str]",
        attempt: int,
        on_attempt: "Optional[Callable[[LiveAttempt], object]]",
        num_slices: int = 1,
    ) -> LiveRepairReport:
        start = trace.now()
        available = {
            index: host
            for index, host in view.hosts.items()
            if index != lost_index and host[0] not in excluded
        }
        if not available:
            raise _AttemptFailed(
                UnrecoverableError(
                    f"no surviving helpers for {view.stripe_id}#{lost_index}"
                ),
                set(),
            )
        code = make_code(view.spec)
        try:
            recipe = code.repair_recipe(lost_index, available.keys())
        except Exception as exc:  # UnrecoverableError, PlanError, ...
            raise _AttemptFailed(exc, set()) from exc
        plan = build_plan(strategy, recipe)
        helper_servers = {i: available[i][0] for i in recipe.helpers}
        addresses: "Dict[str, Address]" = {
            available[i][0]: available[i][1] for i in recipe.helpers
        }
        repair_id = (
            f"live-{view.stripe_id}-{lost_index}-"
            f"a{attempt}-{next(self._repair_seq)}"
        )
        ctx: "Optional[causal.SpanContext]" = None
        if obs.tracer() is not None:
            ctx = causal.SpanContext(
                trace_id=causal.trace_id_for(repair_id),
                span_id=f"coord:{repair_id}",
            )
        dest_id, dest_addr = await self._with_ctx(
            ctx,
            self._choose_destination(
                view, destination, helper_servers, excluded
            ),
        )
        addresses[dest_id] = dest_addr
        aggregators = [
            self._node_server(n, helper_servers, dest_id)
            for n in plan.participants
            if plan.children_of(n)
        ]
        plan_done = trace.now()
        if on_attempt is not None:
            outcome = on_attempt(
                LiveAttempt(
                    attempt=attempt,
                    repair_id=repair_id,
                    strategy=strategy,
                    lost_index=lost_index,
                    helper_servers=dict(helper_servers),
                    destination=dest_id,
                    aggregators=aggregators,
                )
            )
            if inspect.isawaitable(outcome):
                await outcome

        try:
            if not plan.raw:
                payload, records, traffic_records = await self._with_ctx(
                    ctx,
                    self._run_partial_attempt(
                        view,
                        lost_index,
                        recipe,
                        plan,
                        helper_servers,
                        dest_id,
                        addresses,
                        repair_id,
                        num_slices,
                    ),
                )
            else:
                payload, records, traffic_records = await self._with_ctx(
                    ctx,
                    self._run_raw_attempt(
                        view,
                        lost_index,
                        plan,
                        helper_servers,
                        dest_id,
                        dest_addr,
                        repair_id,
                    ),
                )
        except _AttemptFailed as failure:
            obs.registry().counter(
                "live.repair.aborts", stripe=view.stripe_id
            ).inc()
            failure.repair_id = repair_id
            failure.participants = dict(addresses)
            await self._broadcast_abort(repair_id, addresses)
            raise

        end = trace.now()
        if ctx is None:
            records.append(trace.phase_record("plan", start, plan_done, "meta"))
        else:
            records.append(
                trace.phase_record(
                    "plan",
                    start,
                    plan_done,
                    "meta",
                    gid=self._gids.next(),
                    deps=[],
                    trace_id=ctx.trace_id,
                )
            )
        breakdown = trace.breakdown_from_trace(records, start, end)
        # Single ingestion point for the distributed timeline: the wire
        # records (including ones produced by servers sharing this
        # process) become obs spans exactly once, here.
        tracer = obs.tracer()
        if tracer is not None:
            attempt_span = tracer.record_span(
                "live.repair.attempt",
                start,
                end,
                node="coordinator",
                category="live.repair",
                repair_id=repair_id,
                stripe=view.stripe_id,
                strategy=strategy,
                attempt=attempt,
                destination=dest_id,
                helpers=len(recipe.helpers),
                slices=num_slices,
                **({} if ctx is None else {"trace_id": ctx.trace_id}),
            )
            trace.ingest_records_as_spans(
                tracer,
                records,
                parent_id=attempt_span.span_id,
                repair_id=repair_id,
                stripe=view.stripe_id,
                strategy=strategy,
            )
        obs.registry().counter(
            "live.repair.completed", strategy=strategy
        ).inc()
        result = RepairResult(
            repair_id=repair_id,
            kind="repair",
            strategy=strategy,
            code_name=view.spec,
            stripe_id=view.stripe_id,
            lost_index=lost_index,
            chunk_size=view.chunk_size,
            destination=dest_id,
            start_time=0.0,
            end_time=end - start,
            verified=False,
            cache_hits=0,
            phase_busy=trace.phase_busy_map(breakdown),
            traffic=trace.traffic_from_records(traffic_records),
            num_helpers=len(recipe.helpers),
            peak_buffer_bytes=float(payload.nbytes),
        )
        return LiveRepairReport(
            result=result,
            payload=payload,
            breakdown=breakdown,
            attempts=attempt,
        )

    @staticmethod
    def _node_server(
        plan_node: int, helper_servers: "Dict[int, str]", dest_id: str
    ) -> str:
        return dest_id if plan_node == DESTINATION else helper_servers[plan_node]

    async def _choose_destination(
        self,
        view: _StripeView,
        requested: "Optional[str]",
        helper_servers: "Dict[int, str]",
        excluded: "Set[str]",
    ) -> "Tuple[str, Address]":
        servers = await self.list_servers()
        stripe_hosts = {sid for sid, _ in view.hosts.values()}
        helpers = set(helper_servers.values())
        if requested is not None:
            # Deterministic refusals: a replan would only repeat them.
            if requested in helpers:
                raise LiveRepairError(
                    f"destination {requested} hosts a helper chunk"
                )
            if requested not in servers:
                raise LiveRepairError(f"unknown destination {requested}")
            return requested, servers[requested]
        candidates = [
            sid
            for sid in sorted(servers)
            if sid not in stripe_hosts and sid not in excluded
        ]
        if not candidates:  # small clusters: allow non-helper stripe hosts
            candidates = [
                sid
                for sid in sorted(servers)
                if sid not in helpers and sid not in excluded
            ]
        if not candidates:
            raise _AttemptFailed(
                LiveRepairError(
                    f"no server can host the repair of {view.stripe_id}"
                ),
                set(),
            )
        return candidates[0], servers[candidates[0]]

    # ------------------------------------------------------------------
    # PPR / chain: plan commands out, non-leaves first; completion call back
    # ------------------------------------------------------------------
    async def _run_partial_attempt(
        self,
        view: _StripeView,
        lost_index: int,
        recipe,
        plan,
        helper_servers: "Dict[int, str]",
        dest_id: str,
        addresses: "Dict[str, Address]",
        repair_id: str,
        num_slices: int = 1,
    ) -> "Tuple[np.ndarray, list, list]":
        requests = build_partial_requests(
            plan,
            repair_id=repair_id,
            stripe_id=view.stripe_id,
            chunk_ids=view.chunk_ids,
            chunk_size=view.chunk_size,
            node_id_for=lambda n: self._node_server(
                n, helper_servers, dest_id
            ),
            num_slices=num_slices,
        )
        peers = {sid: list(addr.to_wire()) for sid, addr in addresses.items()}

        async def send_plan(plan_node: int) -> None:
            server_id = self._node_server(plan_node, helper_servers, dest_id)
            client = self.pool.get(addresses[server_id])
            try:
                await client.call(
                    MessageType.PARTIAL_OP,
                    {"request": requests[plan_node].to_wire(), "peers": peers},
                    timeout=self.config.rpc_timeout,
                )
            except RpcError as exc:
                raise _AttemptFailed(exc, {server_id}) from exc

        # Every stream frame a node receives follows data that started at
        # a leaf, so once every non-leaf (the destination included) holds
        # its plan, no stream can reach a node before its plan does.
        leaves = [n for n in plan.participants if not plan.children_of(n)]
        await asyncio.gather(
            *(send_plan(n) for n in plan.participants if n not in leaves)
        )
        await asyncio.gather(*(send_plan(n) for n in leaves))
        # The destination keeps the finished repair until this call
        # collects it, so the call may land before or after completion.
        try:
            response = await self.pool.get(addresses[dest_id]).call(
                MessageType.REPAIR_RESULT,
                {
                    "repair_id": repair_id,
                    "lost_chunk_id": view.chunk_ids[lost_index],
                    "lost_index": lost_index,
                },
                timeout=self.config.repair_timeout,
                retries=0,
            )
        except RpcError as exc:
            # A remote *error response* proves the destination is alive
            # (it reported missing partials); only an unresponsive
            # destination is itself a suspect.  Either way the ping round
            # finds whoever actually died.
            suspects = set() if isinstance(exc, RpcRemoteError) else {dest_id}
            raise _AttemptFailed(exc, suspects) from exc
        return self._unpack_destination(response)

    # ------------------------------------------------------------------
    # Raw plans (star / staggered): one command to the destination, which
    # pulls raws step by step
    # ------------------------------------------------------------------
    async def _run_raw_attempt(
        self,
        view: _StripeView,
        lost_index: int,
        plan: RepairPlan,
        helper_servers: "Dict[int, str]",
        dest_id: str,
        dest_addr: Address,
        repair_id: str,
    ) -> "Tuple[np.ndarray, list, list]":
        helpers = {
            str(t.src): {
                "server_id": helper_servers[t.src],
                "address": list(view.hosts[t.src][1].to_wire()),
                "chunk_id": view.chunk_ids[t.src],
                "step": t.step,
            }
            for t in plan.transfers
        }
        client = self.pool.get(dest_addr)
        try:
            response = await client.call(
                MessageType.START_RAW_REPAIR,
                {
                    "repair_id": repair_id,
                    "stripe_id": view.stripe_id,
                    "recipe": recipe_to_wire(plan.recipe),
                    "helpers": helpers,
                    "chunk_size": view.chunk_size,
                    "lost_chunk_id": view.chunk_ids[lost_index],
                    "lost_index": lost_index,
                },
                timeout=self.config.repair_timeout,
                retries=0,
            )
        except RpcError as exc:
            raise _AttemptFailed(exc, {dest_id}) from exc
        return self._unpack_destination(response)

    @staticmethod
    def _unpack_destination(
        response: Frame,
    ) -> "Tuple[np.ndarray, list, list]":
        payload = response.buffers.get(0)
        if payload is None:
            raise _AttemptFailed(
                LiveRepairError("destination response carries no chunk"),
                set(),
            )
        records = list(response.payload.get("trace", []))  # type: ignore[arg-type]
        traffic_records = list(response.payload.get("traffic", []))  # type: ignore[arg-type]
        return payload, records, traffic_records

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    async def _broadcast_abort(
        self, repair_id: str, addresses: "Dict[str, Address]"
    ) -> None:
        """Best-effort REPAIR_ABORT so survivors drop orphaned state."""

        async def tell(address: Address) -> None:
            client = self.pool.get(address)
            try:
                await client.call(
                    MessageType.REPAIR_ABORT,
                    {"repair_id": repair_id},
                    timeout=self.config.connect_timeout,
                    retries=0,
                )
            except RpcError:
                pass

        await asyncio.gather(*(tell(a) for a in addresses.values()))
