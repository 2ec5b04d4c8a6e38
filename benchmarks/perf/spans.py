"""Span wrappers installed from outside around the layer boundaries.

The traced run patches public callables only: class methods on their
class, and ``from``-imported functions in the module that imported them.
``repro.obs`` stays off.  Spans live in memory until the run ends, are
written as a Chrome trace and reduced to the per-layer metrics.

Two kinds of span:

* **sync** — a plain function (GF partial, frame encode/decode, matrix
  encode, plan building).  Everything runs on one thread, so sync spans
  only ever nest; a span's *self time* is its duration minus the sync
  spans nested inside it, and at any instant at most one layer is busy.
* **async** — a coroutine (an RPC round trip, a stream hop, a whole
  repair).  Its elapsed time is mostly waiting: for the peer, the socket,
  or a turn on the event loop behind somebody else's sync work.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: Index of the enclosing async span in ``Recorder.spans`` (-1: none).
#: asyncio copies the context into every task it creates, so work an RPC
#: handler spawns stays a child of the span that spawned it.
_parent: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perf_span", default=-1
)
#: The benchmark op the current task works for.  Known on the client
#: side only: the wire carries no context while ``repro.obs`` is off.
current_op: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perf_op", default=-1
)

# Span record fields (a list, not an object: ~100k spans per traced run).
NAME, LAYER, START, END, PARENT, OP, SYNC, ARG = range(8)

#: Frame types of background chatter (membership, telemetry) that fire on
#: the wall clock, not per op; excluded so frames/op repeats exactly.
BACKGROUND_FRAMES = frozenset(
    ("HELLO", "HEARTBEAT", "STATS", "HEALTH", "DOCTOR", "TELEMETRY",
     "COLLECTOR_QUERY")
)
#: The coordinator's first plan command of a repair attempt.
PLAN_COMMANDS = frozenset(("PARTIAL_OP", "START_RAW_REPAIR"))


class Recorder:
    """In-memory span store plus the running sums reductions need."""

    def __init__(self) -> None:
        self.spans: "List[list]" = []
        #: Wrappers record only while a timed segment is open.
        self.active = False
        #: (start, end, op index) of every verified op, appended by the
        #: workload driver.
        self.ops: "List[Tuple[float, float, int]]" = []
        self.self_time: "Dict[str, float]" = defaultdict(float)
        self._stack: "List[int]" = []
        self._nested: "List[float]" = []
        self._patched: "List[Tuple[object, str, object]]" = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def sync_span(
        self,
        fn: "Callable",
        name: str,
        layer: str,
        arg: "Optional[Callable[..., object]]" = None,
    ) -> "Callable":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, nested = self._stack, self._nested
            span = [
                name, layer, 0.0, 0.0,
                stack[-1] if stack else _parent.get(),
                current_op.get(), True,
                arg(*args, **kwargs) if arg is not None else None,
            ]
            stack.append(len(self.spans))
            nested.append(0.0)
            self.spans.append(span)
            span[START] = start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = end = _now()
                stack.pop()
                duration = end - start
                self.self_time[name] += duration - nested.pop()
                if nested:
                    nested[-1] += duration

        return wrapper

    def async_span(
        self,
        fn: "Callable",
        name: str,
        layer: str,
        arg: "Optional[Callable[..., object]]" = None,
        result: "Optional[Callable[[list, object], None]]" = None,
    ) -> "Callable":
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            outer = _parent.get()
            span = [
                name, layer, _now(), 0.0, outer, current_op.get(), False,
                arg(*args, **kwargs) if arg is not None else None,
            ]
            _parent.set(len(self.spans))
            self.spans.append(span)
            try:
                value = await fn(*args, **kwargs)
                if result is not None:
                    result(span, value)
                return value
            finally:
                span[END] = _now()
                _parent.set(outer)

        return wrapper

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the layer boundaries (README, "Traced run")."""
        from repro.codes.linear import GeneratorMatrixCode
        from repro.codes.recipe import RepairRecipe
        from repro.core.mppr import RepairManager
        from repro.fs.cluster import StorageCluster
        from repro.live import chunkserver, coordinator, rpc, wire
        from repro.sim.network import FlowNetwork

        def wrap(owner, attr, name, kind=self.sync_span, **kw):
            """Patch ``owner.attr`` (a class or an importing module)."""
            layer = name.split(".")[0]
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, kind(getattr(owner, attr), name, layer, **kw))

        def frame_type(_writer, frame):
            return frame.mtype.name

        def call_arg(_client, mtype, _payload=None, buffers=None, **_kw):
            sent = sum(int(b.nbytes) for b in (buffers or {}).values())
            return [mtype.name, sent, 0]

        def call_result(span, response):
            span[ARG][2] = sum(
                int(b.nbytes) for b in response.buffers.values()
            )

        # live: control plane, RPC and stream hops (coroutines)
        coord = coordinator.LiveCoordinator
        wrap(coord, "repair", "coordinator.repair", self.async_span)
        wrap(coord, "locate_stripe", "coordinator.locate_stripe",
             self.async_span)
        wrap(rpc.RpcClient, "call", "rpc.call", self.async_span,
             arg=call_arg, result=call_result)
        for attr in ("begin", "data", "end"):
            wrap(rpc.StreamSender, attr, f"rpc.stream_{attr}", self.async_span)
        # live: the busy (sync) work under them.  ``read_frame`` itself is
        # not wrapped: its elapsed time is a connection's idle wait for the
        # next frame; its CPU part is ``decode_body``.
        wrap(rpc, "write_frame", "wire.write_frame", arg=frame_type)
        wrap(wire, "decode_body", "wire.decode_body")
        wrap(chunkserver, "compute_partial", "fs.compute_partial")
        wrap(coordinator, "build_plan", "repair.build_plan")
        wrap(GeneratorMatrixCode, "encode", "codes.encode")
        wrap(GeneratorMatrixCode, "repair_recipe", "codes.repair_recipe")
        wrap(RepairRecipe, "execute_rows", "codes.execute_rows")
        # sim
        wrap(FlowNetwork, "start_flow", "sim.start_flow")
        wrap(StorageCluster, "write_stripe", "fs.write_stripe")
        wrap(RepairManager, "drain", "mppr.drain")
        wrap(RepairManager, "select_sources", "mppr.select_sources")
        wrap(RepairManager, "select_destination", "mppr.select_destination")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def metrics(self, ops: int) -> "Dict[str, float]":
        """The trace-kind (T) per-layer metrics, per verified op."""
        per_op_ms = 1e3 / max(ops, 1)
        out: "Dict[str, float]" = {
            "fs.compute_partial_busy_ms_per_op":
                self.self_time["fs.compute_partial"] * per_op_ms,
            "wire.busy_ms_per_op": (
                self.self_time["wire.write_frame"]
                + self.self_time["wire.decode_body"]
            ) * per_op_ms,
            "mppr.schedule_ms_per_repair": (
                self.self_time["mppr.select_sources"]
                + self.self_time["mppr.select_destination"]
            ) * per_op_ms,
        }
        frames = 0
        rpc_spans: "List[Tuple[float, float]]" = []
        layer_spans: "List[Tuple[float, float]]" = []
        busy: "List[Tuple[float, float]]" = []
        moved = {"PUT_CHUNK": [0.0, 0.0], "GET_CHUNK": [0.0, 0.0]}
        repairs: "Dict[int, float]" = {}
        plan_ms: "List[float]" = []
        for index, span in enumerate(self.spans):
            name, start, end = span[NAME], span[START], span[END]
            if end <= 0.0:
                continue  # still open when the window closed
            if name == "wire.write_frame":
                frames += span[ARG] not in BACKGROUND_FRAMES
            if name == "coordinator.repair":
                repairs[index] = start
                continue  # the op itself, not a layer under it
            if name == "mppr.drain":
                continue
            layer_spans.append((start, end))
            if span[SYNC]:
                if span[PARENT] < 0 or not self.spans[span[PARENT]][SYNC]:
                    busy.append((start, end))
                continue
            if span[LAYER] == "rpc":
                rpc_spans.append((start, end))
            if name == "rpc.call":
                kind, sent, received = span[ARG]
                if kind in moved:
                    moved[kind][0] += sent + received
                    moved[kind][1] += end - start
                root = self._ancestor(index, repairs)
                if kind in PLAN_COMMANDS and root is not None:
                    plan_ms.append((start - repairs.pop(root)) * 1e3)
        out["wire.frames_per_op"] = frames / max(ops, 1)
        out["coordinator.plan_ms_per_op"] = (
            sum(plan_ms) / len(plan_ms) if plan_ms else 0.0
        )
        for kind, key in (("PUT_CHUNK", "put"), ("GET_CHUNK", "get")):
            nbytes, seconds = moved[kind]
            out[f"chunkserver.{key}_mb_per_s"] = (
                nbytes / 1e6 / seconds if seconds else 0.0
            )
        # Waiting: time some RPC or stream hop was outstanding while no
        # traced layer was doing CPU work.
        waiting = _merge(rpc_spans)
        out["rpc.wait_ms_per_op"] = (
            _length(waiting) - sum(_overlap(waiting, a, b) for a, b in busy)
        ) * per_op_ms
        op_windows = _merge([(start, end) for start, end, _ in self.ops])
        covered = _merge(layer_spans)
        out["bench.trace_coverage_frac"] = (
            sum(_overlap(covered, a, b) for a, b in op_windows)
            / max(_length(op_windows), 1e-12)
        )
        return out

    def _ancestor(self, index: int, roots: "Dict[int, float]") -> "Optional[int]":
        while index >= 0:
            if index in roots:
                return index
            index = self.spans[index][PARENT]
        return None

    def write_chrome_trace(self, path) -> None:
        """Chrome ``traceEvents`` JSON; one track per benchmark op.

        Server-side spans carry no op id (no context crosses the wire);
        they land on the op whose window contains their start, which is
        exact for the single-client workloads.
        """
        origin = min((span[START] for span in self.spans), default=0.0)
        windows = sorted(self.ops)
        starts = [w[0] for w in windows]
        events = []
        for span in self.spans:
            if span[END] <= 0.0:
                continue
            op = span[OP]
            if op < 0 and windows:
                at = bisect.bisect_right(starts, span[START]) - 1
                if at >= 0 and span[START] <= windows[at][1]:
                    op = windows[at][2]
            events.append({
                "name": span[NAME], "cat": span[LAYER], "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": 1, "tid": op + 1,
                "args": {"parent": span[PARENT], "op": op, "arg": span[ARG]},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# Interval arithmetic on (start, end) lists
# ----------------------------------------------------------------------
def _merge(intervals: "List[Tuple[float, float]]") -> "List[Tuple[float, float]]":
    merged: "List[Tuple[float, float]]" = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _length(merged: "List[Tuple[float, float]]") -> float:
    return sum(end - start for start, end in merged)


def _overlap(
    merged: "List[Tuple[float, float]]", start: float, end: float
) -> float:
    """Length of ``[start, end)`` covered by a merged interval list."""
    total = 0.0
    at = max(bisect.bisect_right(merged, (start, float("inf"))) - 1, 0)
    while at < len(merged) and merged[at][0] < end:
        total += max(0.0, min(end, merged[at][1]) - max(start, merged[at][0]))
        at += 1
    return total
