"""Reference flow network that re-solves rates on every flow change.

:class:`EagerFlowNetwork` is the solver :class:`repro.sim.network.
FlowNetwork` replaced: the same progressive filling, run inside every
``start_flow``/``cancel_*``/completion instead of once per virtual
instant.  Differential tests run one schedule against both and require
bit-identical results.  It keeps the original per-solve set-up on
purpose, as the plain reference the faster solver must match: a
``sorted()`` by link name and by flow id, per-solve residual dicts, and a
scan that only skips exhausted links.  It reuses
:class:`~repro.sim.network.Flow` and :class:`~repro.sim.network.Link`,
reads a flow's class from ``meta`` on every settle as that solver did,
and leaves out tracing.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Dict, Optional, Sequence, Set

from repro.errors import SimulationError
from repro.sim.events import Event, Simulation
from repro.sim.network import _EPSILON_BYTES, _EPSILON_SECONDS, Flow, Link


class EagerFlowNetwork:
    """Max-min fair flow network, solved on every change of the flow set."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.active: "Set[Flow]" = set()
        self._flow_ids = itertools.count()
        self._last_settle = 0.0
        self._completion_event: "Optional[Event]" = None
        self.completed_flows = 0
        self.total_bytes_moved = 0.0
        self.class_bytes_moved: "Dict[str, float]" = {}
        self.admission: "Optional[Any]" = None
        self._pending: "Set[Flow]" = set()

    def utilization(self, link: Link) -> float:
        return link.utilization()

    def start_flow(
        self,
        path: "Sequence[Link]",
        size: float,
        on_complete: "Optional[Callable[[Flow], None]]" = None,
        **meta: Any,
    ) -> Flow:
        if size < 0:
            raise SimulationError(f"flow size must be >= 0, got {size}")
        if not path:
            raise SimulationError("flow path must contain at least one link")
        flow = Flow(
            next(self._flow_ids), path, size, meta, on_complete, self.sim.now
        )
        if size <= _EPSILON_BYTES:
            self.sim.schedule(0.0, self._finish_flow, flow)
            return flow
        if self.admission is not None:
            cls = str(flow.meta.get("traffic_class", "foreground"))
            wait = self.admission.delay(
                flow.path[0].name, cls, size, self.sim.now
            )
            if wait > 0.0:
                self._pending.add(flow)
                self.sim.schedule(wait, self._admit, flow)
                return flow
        self._attach(flow)
        return flow

    def _attach(self, flow: Flow) -> None:
        self._settle()
        self.active.add(flow)
        for link in flow.path:
            link.flows.add(flow)
        self._reallocate()

    def _admit(self, flow: Flow) -> None:
        if flow not in self._pending:
            return
        self._pending.discard(flow)
        self._attach(flow)

    def cancel_flow(self, flow: Flow) -> None:
        if flow in self._pending:
            self._pending.discard(flow)
            return
        if flow not in self.active:
            return
        self._settle()
        self._detach(flow)
        self._reallocate()

    def cancel_flows_touching(self, node_id: str) -> int:
        def touches(flow: Flow) -> bool:
            return (
                flow.meta.get("src") == node_id
                or flow.meta.get("dst") == node_id
            )

        cancelled = 0
        for flow in [f for f in self._pending if touches(f)]:
            self._pending.discard(flow)
            cancelled += 1
        victims = [flow for flow in self.active if touches(flow)]
        if not victims:
            return cancelled
        self._settle()
        for flow in victims:
            self._detach(flow)
        self._reallocate()
        return cancelled + len(victims)

    def _detach(self, flow: Flow) -> None:
        self.active.discard(flow)
        for link in flow.path:
            link.flows.discard(flow)

    def _settle(self) -> None:
        elapsed = self.sim.now - self._last_settle
        if elapsed > 0:
            for flow in sorted(self.active, key=lambda f: f.flow_id):
                moved = flow.rate * elapsed
                flow.remaining = max(0.0, flow.remaining - moved)
                cls = str(flow.meta.get("traffic_class", "foreground"))
                for link in flow.path:
                    link.bytes_carried += moved
                self.total_bytes_moved += moved
                self.class_bytes_moved[cls] = (
                    self.class_bytes_moved.get(cls, 0.0) + moved
                )
        self._last_settle = self.sim.now

    def _reallocate(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self.active:
            return
        unfrozen: "Set[Flow]" = set(self.active)
        residual: "Dict[Link, float]" = {}
        link_unfrozen: "Dict[Link, int]" = {}
        link_set: "Set[Link]" = set()
        for flow in self.active:
            flow.rate = 0.0
            for link in flow.path:
                link_set.add(link)
        links = sorted(link_set, key=lambda ln: ln.name)
        for link in links:
            residual[link] = link.effective_capacity()
            link_unfrozen[link] = len(link.flows)
        while unfrozen:
            best_link: "Optional[Link]" = None
            best_share = math.inf
            for link in links:
                count = link_unfrozen[link]
                if count <= 0:
                    continue
                share = residual[link] / count
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            for flow in sorted(best_link.flows, key=lambda f: f.flow_id):
                if flow not in unfrozen:
                    continue
                flow.rate = best_share
                unfrozen.discard(flow)
                for link in flow.path:
                    residual[link] -= best_share
                    link_unfrozen[link] -= 1
            links.remove(best_link)
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        soonest: "Optional[Flow]" = None
        soonest_dt = math.inf
        for flow in sorted(self.active, key=lambda f: f.flow_id):
            if flow.rate <= 0:
                raise SimulationError(f"active flow has zero rate: {flow!r}")
            dt = flow.remaining / flow.rate
            if dt < soonest_dt:
                soonest_dt = dt
                soonest = flow
        if soonest is None:
            return
        self._completion_event = self.sim.schedule(
            soonest_dt, self._on_completion_timer, soonest
        )

    def _on_completion_timer(self, flow: Flow) -> None:
        self._completion_event = None
        self._settle()
        residual_time = (
            flow.remaining / flow.rate if flow.rate > 0 else math.inf
        )
        if flow.remaining > _EPSILON_BYTES and residual_time > _EPSILON_SECONDS:
            self._reallocate()
            return
        self._detach(flow)
        self._finish_flow(flow)
        self._reallocate()

    def _finish_flow(self, flow: Flow) -> None:
        flow.finish_time = self.sim.now
        flow.remaining = 0.0
        self.completed_flows += 1
        if flow.on_complete is not None:
            flow.on_complete(flow)
