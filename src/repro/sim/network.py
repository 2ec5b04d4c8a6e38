"""Flow-level network with max-min fair bandwidth sharing.

Every bulk transfer is a :class:`Flow` along a path of :class:`Link`
objects.  Rates are max-min fair, computed with the classic *progressive
filling* algorithm: repeatedly find the most contended link, freeze its
flows at the equal share of its residual capacity, remove it, repeat.
Between changes flows progress linearly, so the engine only needs one
completion event at a time.

A change to the set of active flows settles progress to ``now`` and
disarms the completion timer at once, but solves nothing: the network
turns stale and solves rates, then re-arms the timer, once per virtual
instant, after the instant's last event
(:meth:`~repro.sim.events.Simulation.at_instant_end`).  A star fan-in
that starts k flows in one event, or a completion whose callback starts
the next hop, costs one solve, not k or two.

A solve's set-up is one pass over the links in use, which attach and
detach keep in name order; each link holds its residual capacity and
unfrozen-flow count in private slots, and a flow's rate doubles as its
frozen mark.  Rounds drop exhausted links, and freeze a bottleneck's
flows unsorted: each takes the same share off every link it crosses, so
their order changes no float.

Settling progress adds each flow's bytes to every link on its path
(``Link.bytes_carried``) and to the network-wide per-class total
(``FlowNetwork.class_bytes_moved``); per-class bytes are not kept per
link.

Results are bit-identical to solving on every change.  Rates are a pure
function of the active set, and progress is settled before each change,
so a later solve finds the same rates and the same completion time.  The
timer takes the sequence number and causal context of the last change,
so it breaks ties and propagates trace context as a timer armed by that
change would have; if an event at ``now`` scheduled after that change
comes up first, the solve runs just before it (a timer due at ``now``
must fire first).  A telemetry read mid-instant goes through
:meth:`FlowNetwork.utilization`, which solves stale rates first.

This is the standard fluid approximation used by datacenter-scale
simulators; it captures exactly the effect the paper builds on — k
concurrent repair flows into one ingress link get B/k each, while PPR's
per-step link-disjoint transfers each get the full B.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from typing import Any, Callable, Dict, KeysView, List, Optional, Sequence, Set

from repro import obs
from repro.obs import causal
from repro.errors import SimulationError
from repro.sim.events import Event, Simulation
from repro.util.units import Bandwidth

#: Residual-byte tolerance below which a flow counts as finished.
_EPSILON_BYTES = 1e-6

#: Residual-time tolerance: if draining the remainder would take less than
#: this, the flow counts as finished.  Guards against float underflow when
#: ``now + dt == now`` (a sub-femtosecond remainder would otherwise loop
#: the completion timer forever without advancing the clock).
_EPSILON_SECONDS = 1e-9

_flow_id = operator.attrgetter("flow_id")


class Link:
    """A unidirectional link with fixed capacity in bytes/second.

    Optional *incast* modeling: real TCP fan-ins suffer goodput collapse
    when many synchronized senders overflow a switch port's buffer (the
    regime behind the paper's Fig 7d, where traditional repair measured
    ~3.5x below the fluid-flow bound).  With ``incast_threshold`` set, a
    link carrying ``n > threshold`` concurrent flows delivers only
    ``capacity / (1 + incast_gamma * (n - threshold))``.

    ``bytes_carried`` totals every class's bytes; the per-class split is
    network-wide (:attr:`FlowNetwork.class_bytes_moved`).
    """

    __slots__ = (
        "name",
        "capacity",
        "flows",
        "bytes_carried",
        "incast_threshold",
        "incast_gamma",
        # Progressive-filling state, valid only inside one solve.
        "_residual",
        "_unfrozen",
    )

    def __init__(
        self,
        name: str,
        capacity: "float | str",
        incast_threshold: "int | None" = None,
        incast_gamma: float = 0.0,
    ):
        self.name = name
        self.capacity = Bandwidth.of(capacity).bytes_per_sec
        self.flows: "Set[Flow]" = set()
        self.bytes_carried = 0.0
        self.incast_threshold = incast_threshold
        self.incast_gamma = incast_gamma
        self._residual = 0.0
        self._unfrozen = 0

    def effective_capacity(self) -> float:
        """Deliverable goodput given the current number of flows."""
        if self.incast_threshold is None or self.incast_gamma <= 0.0:
            return self.capacity
        excess = len(self.flows) - self.incast_threshold
        if excess <= 0:
            return self.capacity
        return self.capacity / (1.0 + self.incast_gamma * excess)

    def utilization(self) -> float:
        """Fraction of effective capacity carrying flows right now.

        Sum of the current max-min fair flow rates over the deliverable
        goodput.  In [0, 1] up to float rounding (0.0 on an idle or
        zero-capacity link).  Mid-instant the rates may be stale; read it
        through :meth:`FlowNetwork.utilization` to solve them first.
        """
        capacity = self.effective_capacity()
        if capacity <= 0.0 or not self.flows:
            return 0.0
        return sum(flow.rate for flow in self.flows) / capacity

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.capacity:.3g}B/s {len(self.flows)} flows>"


class Flow:
    """A bulk transfer in progress."""

    __slots__ = (
        "flow_id",
        "path",
        "size",
        "remaining",
        "rate",
        "meta",
        "traffic_class",
        "on_complete",
        "start_time",
        "finish_time",
    )

    def __init__(
        self,
        flow_id: int,
        path: "Sequence[Link]",
        size: float,
        meta: "Dict[str, Any]",
        on_complete: "Optional[Callable[[Flow], None]]",
        start_time: float,
    ):
        self.flow_id = flow_id
        self.path = tuple(path)
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.meta = meta
        #: QoS class ("foreground" unless tagged otherwise via meta);
        #: ``meta`` is fixed at start, so it is read once, here.
        self.traffic_class = str(meta.get("traffic_class", "foreground"))
        self.on_complete = on_complete
        self.start_time = start_time
        self.finish_time: "Optional[float]" = None

    @property
    def duration(self) -> float:
        """Transfer duration; only valid after completion."""
        if self.finish_time is None:
            raise SimulationError("flow has not finished yet")
        return self.finish_time - self.start_time

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.flow_id} {self.remaining:.3g}/{self.size:.3g}B "
            f"@{self.rate:.3g}B/s>"
        )


class FlowNetwork:
    """Tracks active flows and keeps their rates max-min fair."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        #: Active flows in flow-id order (a dict as an ordered set), the
        #: order every float accumulation over them follows.
        self._active: "Dict[Flow, None]" = {}
        #: Links carrying at least one active flow, in name order (with
        #: their names alongside, for ``bisect``), kept on attach/detach.
        self._in_use: "List[Link]" = []
        self._in_use_names: "List[str]" = []
        self._flow_ids = itertools.count()
        self._last_settle = 0.0
        self._completion_event: "Optional[Event]" = None
        #: Rates no longer match the active set (solved lazily).
        self._stale = False
        #: Sequence number and causal context of the last change: the
        #: timer armed at instant end breaks ties and runs as if it had
        #: been scheduled by that change.
        self._change_seq = 0
        self._change_ctx: "Optional[causal.SpanContext]" = None
        self.completed_flows = 0
        self.total_bytes_moved = 0.0
        #: Network-wide per-traffic-class byte totals (QoS accounting).
        self.class_bytes_moved: "Dict[str, float]" = {}
        #: Optional admission controller (see repro.qos.admission): when
        #: set, paced-class flows wait out their token-bucket delay in a
        #: pending set before touching any link.  Their ``start_time``
        #: stays at enqueue, so admission queueing counts as latency.
        self.admission: "Optional[Any]" = None
        self._pending: "Set[Flow]" = set()

    @property
    def active(self) -> "KeysView[Flow]":
        """The flows in the fabric, in flow-id order (a read-only view)."""
        return self._active.keys()

    def utilization(self, link: Link) -> float:
        """``link.utilization()`` under rates solved for the current flows.

        Solves first when a change this instant left the rates stale; the
        completion timer is still armed at instant end, so a telemetry
        read never touches the event heap.
        """
        if self._stale:
            self._solve()
        return link.utilization()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        path: "Sequence[Link]",
        size: float,
        on_complete: "Optional[Callable[[Flow], None]]" = None,
        **meta: Any,
    ) -> Flow:
        """Begin a transfer of ``size`` bytes along ``path``.

        ``on_complete(flow)`` fires (as a simulation event) when the last
        byte arrives.  Zero-size flows complete after one zero-delay event.
        """
        if size < 0:
            raise SimulationError(f"flow size must be >= 0, got {size}")
        if not path:
            raise SimulationError("flow path must contain at least one link")
        if len(set(path)) != len(path):
            raise SimulationError("flow path must not repeat a link")
        flow = Flow(
            next(self._flow_ids),
            path,
            size,
            meta,
            on_complete,
            self.sim.now,
        )
        if size <= _EPSILON_BYTES:
            self.sim.schedule(0.0, self._finish_flow, flow)
            return flow
        if self.admission is not None:
            wait = self.admission.delay(
                flow.path[0].name, flow.traffic_class, size, self.sim.now
            )
            if wait > 0.0:
                self._pending.add(flow)
                self.sim.schedule(wait, self._admit, flow)
                return flow
        self._attach(flow)
        return flow

    def _attach(self, flow: Flow) -> None:
        self._settle()
        self._active[flow] = None
        for link in flow.path:
            if not link.flows:
                i = bisect.bisect(self._in_use_names, link.name)
                self._in_use_names.insert(i, link.name)
                self._in_use.insert(i, link)
            link.flows.add(flow)
        self._reallocate()

    def _admit(self, flow: Flow) -> None:
        """A paced flow's token-bucket delay elapsed; enter the fabric."""
        if flow not in self._pending:
            return  # cancelled while queued
        self._pending.discard(flow)
        self._attach(flow)
        # The only out-of-order attach: younger flows may already be in.
        if len(self._active) > 1:
            self._active = dict.fromkeys(sorted(self._active, key=_flow_id))

    def cancel_flow(self, flow: Flow) -> None:
        """Abort a transfer (e.g. helper died); no completion fires."""
        if flow in self._pending:
            self._pending.discard(flow)
            return
        if flow not in self._active:
            return
        self._settle()
        self._detach(flow)
        self._reallocate()

    def cancel_flows_touching(self, node_id: str) -> int:
        """Abort every active flow with ``src`` or ``dst`` == ``node_id``.

        Used when a server crashes: its in-flight transfers die with it
        (admission-queued flows included).  Returns the number of flows
        cancelled.
        """

        def touches(flow: Flow) -> bool:
            return (
                flow.meta.get("src") == node_id
                or flow.meta.get("dst") == node_id
            )

        cancelled = 0
        for flow in [f for f in self._pending if touches(f)]:
            self._pending.discard(flow)
            cancelled += 1
        victims = [flow for flow in self._active if touches(flow)]
        if not victims:
            return cancelled
        self._settle()
        for flow in victims:
            self._detach(flow)
        self._reallocate()
        return cancelled + len(victims)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        del self._active[flow]
        for link in flow.path:
            link.flows.discard(flow)
            if not link.flows:
                i = self._in_use.index(link)
                del self._in_use_names[i]
                del self._in_use[i]

    def _settle(self) -> None:
        """Advance every active flow's progress to ``sim.now``."""
        elapsed = self.sim.now - self._last_settle
        if elapsed > 0:
            # Flow-id order, never hash order: float-accumulation order
            # (and hence byte counters) must not depend on heap layout.
            for flow in self._active:
                moved = flow.rate * elapsed
                left = flow.remaining - moved
                flow.remaining = left if left > 0.0 else 0.0
                for link in flow.path:
                    link.bytes_carried += moved
                self.total_bytes_moved += moved
                cls = flow.traffic_class
                self.class_bytes_moved[cls] = (
                    self.class_bytes_moved.get(cls, 0.0) + moved
                )
        self._last_settle = self.sim.now

    def _reallocate(self) -> None:
        """The active set changed: disarm the timer, solve at instant end.

        The timer goes at once: one armed from stale rates must never fire.
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        self._stale = True
        self._change_seq = self.sim.at_instant_end(self._end_instant)
        self._change_ctx = causal.current()

    def _end_instant(self) -> None:
        if self._stale:
            self._solve()
        self._schedule_next_completion()

    def _solve(self) -> None:
        """Progressive filling: recompute max-min fair rates."""
        self._stale = False
        if not self._active:
            return

        # The bottleneck scan follows link-name order, so a tie in share
        # goes to the first name and a rerun of the same scenario replays
        # bit-identically even within one process (the QoS fingerprint
        # tests rely on it).  The in-use list already is in that order;
        # each link's residual and unfrozen count live in its slots.  A
        # flow's rate doubles as its frozen mark: no share is -inf.
        unsolved = -math.inf
        for flow in self._active:
            flow.rate = unsolved
        links = self._in_use
        for link in links:
            link._residual = (
                link.capacity if link.incast_threshold is None
                else link.effective_capacity()
            )
            # Every flow on a link is active (_attach/_detach move both
            # sets together), paths repeat no link, and nothing is frozen.
            link._unfrozen = len(link.flows)

        while links:
            # The bottleneck link is the one with the smallest equal share.
            best_link: "Optional[Link]" = None
            best_share = math.inf
            for link in links:
                share = link._residual / link._unfrozen
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                # Every share left is infinite: those flows get rate 0,
                # which the completion timer reports.
                for flow in self._active:
                    if flow.rate == unsolved:
                        flow.rate = 0.0
                break
            # Freeze the bottleneck's unfrozen flows; their order is free.
            for flow in best_link.flows:
                if flow.rate != unsolved:
                    continue
                flow.rate = best_share
                for link in flow.path:
                    link._residual -= best_share
                    link._unfrozen -= 1
            # Drop the exhausted links, the bottleneck among them: the
            # scan would skip them, and the survivors keep name order.
            links = [link for link in links if link._unfrozen]

    def _schedule_next_completion(self) -> None:
        soonest: "Optional[Flow]" = None
        soonest_dt = math.inf
        for flow in self._active:
            if flow.rate <= 0:
                raise SimulationError(
                    f"active flow has zero rate: {flow!r}"
                )
            dt = flow.remaining / flow.rate
            if dt < soonest_dt:
                soonest_dt = dt
                soonest = flow
        if soonest is None:
            return
        sim = self.sim
        event = sim._schedule_as_of(
            self._change_seq, sim.now + soonest_dt,
            self._on_completion_timer, soonest,
        )
        event.ctx = self._change_ctx
        self._completion_event = event

    def _on_completion_timer(self, flow: Flow) -> None:
        self._completion_event = None
        self._settle()
        residual_time = (
            flow.remaining / flow.rate if flow.rate > 0 else math.inf
        )
        if flow.remaining > _EPSILON_BYTES and residual_time > _EPSILON_SECONDS:
            # Numeric slack; re-arm.
            self._reallocate()
            return
        self._detach(flow)
        self._finish_flow(flow)
        self._reallocate()

    def _finish_flow(self, flow: Flow) -> None:
        flow.finish_time = self.sim.now
        flow.remaining = 0.0
        self.completed_flows += 1
        tracer = obs.tracer()
        if tracer is not None:
            dst = str(flow.meta.get("dst", ""))
            extra = {}
            ctx = causal.current()
            if ctx is not None:
                extra["trace_id"] = ctx.trace_id
            tracer.record_span(
                "sim.net.flow",
                flow.start_time,
                flow.finish_time,
                node=dst,
                category="sim.net",
                nbytes=flow.size,
                src=str(flow.meta.get("src", "")),
                **extra,
            )
            obs.registry().counter("sim.net.flows").inc()
            obs.registry().counter("sim.net.bytes").inc(flow.size)
        if flow.on_complete is not None:
            flow.on_complete(flow)
