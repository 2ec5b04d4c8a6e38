"""Causal distributed tracing: context propagation, DAG stitching, critical paths.

This module turns per-node span streams into *cross-node* causal structure:

* :class:`SpanContext` carries ``(trace_id, span_id)`` across async hops and —
  via :meth:`SpanContext.to_wire` / :meth:`SpanContext.from_wire` — across the
  live TCP wire protocol (the optional ``__trace__`` frame-header field, see
  ``docs/PROTOCOL.md``).
* :func:`estimate_offsets` pairs RPC send/recv observations (a network span's
  raw ``sent_at`` sender-clock attribute against its receiver-clock end) to
  estimate per-node wall-clock offsets.  Virtual-clock (sim) traces share one
  clock and get all-zero offsets.
* :func:`stitch` groups phase spans by trace id, corrects clocks, resolves
  explicit ``gid``/``deps`` causal edges (live records) or infers program-order
  and transfer edges from timing (sim / legacy records), and emits one
  :class:`RepairDag` per traced repair.
* :class:`RepairDag` extracts the observed critical path, its per-phase
  attribution, the structural transfer depth (the observable that Theorem 1
  bounds by ``ceil(log2(k+1))``), and the peak ingress fan-in (the ``k``
  serialized transfers of a traditional star repair).

Design notes
------------

Spans are *work intervals* (disk read, GF compute, network transfer,
aggregation XOR).  Two kinds of causal edges connect them:

* **data edges** — the payload a span consumed had to be produced first
  (e.g. a transfer depends on the sender's multiply).  Live records carry
  these explicitly (``deps``); sim traces infer them from exact virtual
  timestamps.
* **resource edges** — two spans serialized on the same resource.  The one
  that matters structurally is the *ingress link*: every transfer arriving
  at a node shares that node's link, so all of a node's network spans chain
  in completion order regardless of wall-clock overlap (a fluid network
  model runs concurrent arrivals at fractional bandwidth — overlapped in
  time but still serialized on the link).  Theorem 1's "time steps" are
  precisely this serialization at the repair destination: ``k`` chained
  arrivals for a star repair's incast, only ``ceil(log2(k+1))`` for a PPR
  binomial tree.

Ingress-serialization edges are added for every network span at stitch
time.  *Data* edges come either from explicit causal fields
(``gid``/``deps`` attributes, live records) or — for spans without them
(sim, legacy) — from program-order and transfer-timing inference; a span
with explicit fields never receives inferred data edges, so the two schemes
cannot double-draw.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .span import Span

#: Span categories whose spans are causal work units (DAG nodes).
PHASE_CATEGORIES = ("live.phase", "sim.phase")

#: Umbrella span categories carrying per-repair metadata (strategy,
#: helpers, slices).
UMBRELLA_CATEGORIES = ("live.repair", "sim.repair")

#: Phases recognised for attribution; anything else is reported verbatim.
KNOWN_PHASES = ("plan", "disk_read", "network", "compute", "disk_write")


# ---------------------------------------------------------------------------
# Trace-context propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanContext:
    """Immutable causal context: which trace we are in and who spawned us."""

    trace_id: str
    span_id: str

    def child(self, span_id: str) -> "SpanContext":
        """Derive a context for a child unit of work within the same trace."""
        return SpanContext(trace_id=self.trace_id, span_id=span_id)

    def to_wire(self) -> Dict[str, str]:
        """Serialise for the ``__trace__`` frame-header field."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data: object) -> Optional["SpanContext"]:
        """Parse a ``__trace__`` header value; tolerate anything malformed."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str) or not span_id:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


_current: "ContextVar[Optional[SpanContext]]" = ContextVar(
    "repro_causal_context", default=None
)


def current() -> Optional[SpanContext]:
    """The ambient :class:`SpanContext`, or None outside any traced repair."""
    return _current.get()


def activate(ctx: Optional[SpanContext]) -> "Token[Optional[SpanContext]]":
    """Bind ``ctx`` as the ambient context; pair with :func:`restore`."""
    return _current.set(ctx)


def restore(token: "Token[Optional[SpanContext]]") -> None:
    """Undo a previous :func:`activate`."""
    _current.reset(token)


@contextmanager
def bound(ctx: Optional[SpanContext]) -> Iterator[Optional[SpanContext]]:
    """Context manager form of :func:`activate`/:func:`restore`."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def current_wire() -> Optional[Dict[str, str]]:
    """Wire form of the ambient context, or None when unset."""
    ctx = _current.get()
    return ctx.to_wire() if ctx is not None else None


def trace_id_for(repair_id: str) -> str:
    """Deterministic trace id for a repair attempt.

    Hash-derived (no randomness) so every node — and any later re-ingestion
    of legacy records — maps the same repair id to the same trace id.
    """
    digest = hashlib.sha1(repair_id.encode("utf-8")).hexdigest()
    return f"t{digest[:16]}"


class GidAllocator:
    """Allocates process-unique causal ids ``<node>#<n>`` for trace records."""

    def __init__(self, node: str) -> None:
        """Create an allocator namespaced to ``node``."""
        self._node = node
        self._counter = itertools.count(1)

    def next(self) -> str:
        """Return the next unique causal id."""
        return f"{self._node}#{next(self._counter)}"


# ---------------------------------------------------------------------------
# Clock-offset estimation
# ---------------------------------------------------------------------------


def _span_trace_id(span: Span) -> Optional[str]:
    tid = span.attrs.get("trace_id")
    if isinstance(tid, str) and tid:
        return tid
    repair_id = span.attrs.get("repair_id")
    if isinstance(repair_id, str) and repair_id:
        return trace_id_for(repair_id)
    return None


def _is_phase_span(span: Span) -> bool:
    return span.category in PHASE_CATEGORIES


def estimate_offsets(
    spans: Iterable[Span], reference: Optional[str] = None
) -> Dict[str, float]:
    """Estimate per-node clock offsets from send/recv pairs in network spans.

    A live ``network`` phase span is recorded at the *receiver* but keeps the
    sender's raw ``sent_at`` timestamp as an attribute.  ``d = end - sent_at``
    then mixes true latency with the clock offset ``offset(recv) -
    offset(send)``.  Taking the per-direction minimum over all transfers
    filters queueing noise; when both directions exist, symmetric-latency
    pairing (NTP-style) cancels the latency term:

    ``offset(b) - offset(a) = (d_ab - d_ba) / 2``

    With only one direction observed (the normal case for a repair tree) the
    one-way delay is attributed entirely to offset — the right call for
    co-located test clusters where skew dominates latency, and harmless for
    path extraction since the same correction applies to every span of a node.

    Returns ``{node: offset}`` where ``corrected_t = t - offset``, anchored at
    ``reference`` (offset 0).  Default reference: the node that wrote the
    final ``disk_write`` span (the repair destination), else the
    lexicographically smallest node.  Nodes with no send/recv evidence keep
    offset 0.
    """
    nodes: set = set()
    best_delay: Dict[Tuple[str, str], float] = {}
    last_write: Optional[Span] = None
    for span in spans:
        if not _is_phase_span(span):
            continue
        nodes.add(span.node)
        phase = span.name.rsplit(".", 1)[-1]
        if phase == "disk_write" and (
            last_write is None or span.end >= last_write.end
        ):
            last_write = span
        if phase != "network":
            continue
        src = span.attrs.get("src")
        sent_at = span.attrs.get("sent_at")
        if not isinstance(src, str) or not isinstance(sent_at, (int, float)):
            continue
        nodes.add(src)
        key = (src, span.node)
        d = span.end - float(sent_at)
        if key not in best_delay or d < best_delay[key]:
            best_delay[key] = d

    if not nodes:
        return {}

    # Relative offsets offset(b) - offset(a) for each observed pair.
    adjacency: Dict[str, List[Tuple[str, float]]] = {n: [] for n in nodes}
    seen_pairs: set = set()
    for (a, b), d_ab in best_delay.items():
        pair = frozenset((a, b))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        d_ba = best_delay.get((b, a))
        if d_ba is not None:
            delta = (d_ab - d_ba) / 2.0  # offset(b) - offset(a)
        else:
            delta = d_ab
        adjacency[a].append((b, delta))
        adjacency[b].append((a, -delta))

    if reference is None:
        if last_write is not None:
            reference = last_write.node
        else:
            reference = min(nodes)
    offsets: Dict[str, float] = {n: 0.0 for n in nodes}
    if reference not in offsets:
        offsets[reference] = 0.0
    visited = {reference}
    queue = deque([reference])
    while queue:
        a = queue.popleft()
        for b, delta in adjacency.get(a, ()):
            if b in visited:
                continue
            visited.add(b)
            offsets[b] = offsets[a] + delta
            queue.append(b)
    return offsets


# ---------------------------------------------------------------------------
# The stitched repair DAG
# ---------------------------------------------------------------------------


@dataclass
class DagNode:
    """One unit of work in a stitched repair DAG (clock-corrected)."""

    gid: str
    span: Span
    phase: str
    node: str
    start: float
    end: float
    deps: List[str] = field(default_factory=list)
    explicit: bool = False

    @property
    def duration(self) -> float:
        """Corrected wall/virtual seconds spent in this unit of work."""
        return max(0.0, self.end - self.start)


def _node_key(n: DagNode) -> Tuple[float, float, str]:
    return (n.end, n.start, n.gid)


@dataclass
class RepairDag:
    """A causally stitched view of one traced repair attempt."""

    trace_id: str
    repair_id: Optional[str]
    strategy: Optional[str]
    helpers: Optional[int]
    clock: str
    nodes: Dict[str, DagNode]
    offsets: Dict[str, float]
    #: Slices per transfer (repair pipelining); 1 moves whole chunks.
    slices: int = 1

    @property
    def k(self) -> Optional[int]:
        """Number of helper chunks read (the paper's ``k`` for RS codes)."""
        return self.helpers

    def _topo(self) -> List[DagNode]:
        # Edges were validated against _node_key ordering at stitch time, so
        # sorting by that key is a topological order.
        return sorted(self.nodes.values(), key=_node_key)

    def sink(self) -> Optional[DagNode]:
        """The unit of work that finished last (the repair's completion)."""
        order = self._topo()
        return order[-1] if order else None

    def _longest_chain(
        self,
    ) -> Tuple[Dict[str, int], Dict[str, Optional[DagNode]]]:
        """DP over the DAG: per-node transfer depth and the chosen predecessor.

        Depth counts ``network`` nodes on the deepest chain into each node.
        The chosen predecessor maximises ``(depth, finish time)`` — structure
        first, binding (latest-finishing) dependency as the tie-break — so
        the walk-back path realizes the Theorem-1 step count while still
        following what actually delayed each step.
        """
        depth: Dict[str, int] = {}
        best_pred: Dict[str, Optional[DagNode]] = {}
        for n in self._topo():
            chosen: Optional[DagNode] = None
            for g in n.deps:
                p = self.nodes.get(g)
                if p is None:
                    continue
                if chosen is None or (depth[p.gid], _node_key(p)) > (
                    depth[chosen.gid],
                    _node_key(chosen),
                ):
                    chosen = p
            d = depth[chosen.gid] if chosen is not None else 0
            if n.phase == "network":
                d += 1
            depth[n.gid] = d
            best_pred[n.gid] = chosen
        return depth, best_pred

    def critical_path(self) -> List[DagNode]:
        """The observed critical path: the chain that bounded completion.

        Walks back from the sink (the last-finishing unit of work), at each
        step following the predecessor chosen by :meth:`_longest_chain` —
        deepest transfer chain first, latest-finishing dependency on ties.
        """
        sink = self.sink()
        if sink is None:
            return []
        _, best_pred = self._longest_chain()
        path = [sink]
        cur: Optional[DagNode] = sink
        guard = len(self.nodes) + 1
        while cur is not None and guard > 0:
            guard -= 1
            cur = best_pred.get(cur.gid)
            if cur is not None:
                path.append(cur)
        path.reverse()
        return path

    def transfer_depth(self) -> int:
        """Maximum number of causally/resource-serialized transfers.

        The structural observable Theorem 1 is about: ``ceil(log2(k+1))``
        for a PPR tree (the destination's serialized ingress arrivals) and
        ``k`` for star/staggered/chain repairs (the incast funnel, or the
        pipeline's data chain).  Computed as the max over DAG paths of the
        count of ``network`` nodes, which is robust to absolute-timing
        noise in a way a seconds-valued path length is not.
        """
        depth, _ = self._longest_chain()
        return max(depth.values(), default=0)

    def ingress_fanin(self) -> Tuple[Optional[str], int]:
        """``(node, count)`` for the node receiving the most transfers.

        A traditional star repair funnels all ``k`` helper chunks into the
        repair site, so its peak ingress fan-in is ``k``.
        """
        counts: Dict[str, int] = {}
        for n in self.nodes.values():
            if n.phase == "network":
                counts[n.node] = counts.get(n.node, 0) + 1
        if not counts:
            return (None, 0)
        node = max(counts, key=lambda x: (counts[x], x))
        return (node, counts[node])

    def attribution(
        self, path: Optional[Sequence[DagNode]] = None
    ) -> Dict[str, float]:
        """Per-phase seconds along a path, plus inter-step ``wait`` slack."""
        if path is None:
            path = self.critical_path()
        out: Dict[str, float] = {}
        prev_end: Optional[float] = None
        for n in path:
            out[n.phase] = out.get(n.phase, 0.0) + n.duration
            if prev_end is not None and n.start > prev_end:
                out["wait"] = out.get("wait", 0.0) + (n.start - prev_end)
            prev_end = max(prev_end, n.end) if prev_end is not None else n.end
        return out

    def path_network_seconds(
        self, path: Optional[Sequence[DagNode]] = None
    ) -> float:
        """Wall/virtual seconds the path spent moving bytes: interval union.

        The union (not the sum) of the path's ``network`` intervals: when a
        fluid network model runs two arrivals concurrently at half
        bandwidth, each span is twice as long but the link moved the same
        bytes in the same window — summing would double-count it.
        """
        if path is None:
            path = self.critical_path()
        intervals = sorted(
            (n.start, n.end) for n in path if n.phase == "network"
        )
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in intervals:
            if cur_start is None or start > cur_end:
                if cur_start is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    def elapsed(self) -> float:
        """Corrected seconds from the first start to the last end."""
        if not self.nodes:
            return 0.0
        start = min(n.start for n in self.nodes.values())
        end = max(n.end for n in self.nodes.values())
        return max(0.0, end - start)


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------


def _phase_of(span: Span) -> str:
    return span.name.rsplit(".", 1)[-1]


def _gid_of(span: Span) -> str:
    gid = span.attrs.get("gid")
    if isinstance(gid, str) and gid:
        return gid
    return f"{span.node}~{span.span_id}"


def _has_explicit_causality(span: Span) -> bool:
    return isinstance(span.attrs.get("gid"), str) or isinstance(
        span.attrs.get("deps"), list
    )


def _infer_edges(nodes: List[DagNode], eps: float) -> None:
    """Infer *data* edges for nodes without explicit ``deps``.

    * **program order** — within one storage node, the latest span that
      finished before this one started is a predecessor; overlapping spans
      are concurrent (link serialization is handled separately by
      :func:`_add_ingress_edges`).
    * **transfer edges** — a network span recorded at the receiver with a
      ``src`` attribute depends on the sender's latest span that finished
      before the transfer completed.
    """
    by_node: Dict[str, List[DagNode]] = {}
    for n in nodes:
        by_node.setdefault(n.node, []).append(n)
    for seq in by_node.values():
        seq.sort(key=_node_key)

    for n in nodes:
        if n.explicit:
            continue
        # Same-node predecessor: the latest span ordered before n.
        pred: Optional[DagNode] = None
        for cand in by_node[n.node]:
            if _node_key(cand) >= _node_key(n):
                break
            if cand.end <= n.start + eps:
                pred = cand
        if pred is not None:
            n.deps.append(pred.gid)
        if n.phase == "network":
            src = n.span.attrs.get("src")
            if isinstance(src, str) and src in by_node and src != n.node:
                sender: Optional[DagNode] = None
                for cand in by_node[src]:
                    if cand.end > n.end + eps:
                        break
                    if _node_key(cand) < _node_key(n):
                        sender = cand
                if sender is not None and sender.gid not in n.deps:
                    n.deps.append(sender.gid)


def _add_ingress_edges(nodes: List[DagNode]) -> None:
    """Chain every node's network arrivals: the ingress link serializes them.

    Applies to *all* spans, explicit or inferred: transfers landing on one
    storage node share its ingress link, so each depends on the previous
    arrival even when their wall-clock intervals overlap (a fluid network
    model runs concurrent arrivals at fractional bandwidth, and a real
    incast runs them at TCP's mercy — either way the link serialized the
    bytes).  This resource edge is what makes the stitched DAG's transfer
    depth equal Theorem 1's step count: ``k`` for the star funnel,
    ``ceil(log2(k+1))`` for the PPR tree.
    """
    by_node: Dict[str, List[DagNode]] = {}
    for n in nodes:
        if n.phase == "network":
            by_node.setdefault(n.node, []).append(n)
    for arrivals in by_node.values():
        arrivals.sort(key=_node_key)
        for prev, cur in zip(arrivals, arrivals[1:]):
            if prev.gid not in cur.deps:
                cur.deps.append(prev.gid)


def stitch(
    spans: Iterable[Span],
    clock: str = "wall",
    reference: Optional[str] = None,
    eps: Optional[float] = None,
) -> List[RepairDag]:
    """Stitch a mixed span stream into per-repair causal DAGs.

    ``clock`` is the trace's clock name (``meta["clock"]`` in recorded trace
    files): ``"virtual"`` traces share one clock and skip offset estimation;
    anything else gets per-node offsets from :func:`estimate_offsets`.
    ``eps`` is the timestamp-comparison tolerance for inferred edges
    (defaults: 1e-9 virtual, 1e-6 wall).

    Returns one :class:`RepairDag` per distinct trace id, ordered by first
    span start.  Spans with no trace id and no repair id are grouped per
    unknown bucket only if nothing else is present (legacy single-repair
    traces remain stitchable).
    """
    all_spans = list(spans)
    if eps is None:
        eps = 1e-9 if clock == "virtual" else 1e-6
    if clock == "virtual":
        offsets: Dict[str, float] = {}
    else:
        offsets = estimate_offsets(all_spans, reference=reference)

    phase_spans = [s for s in all_spans if _is_phase_span(s)]
    groups: Dict[str, List[Span]] = {}
    for s in phase_spans:
        tid = _span_trace_id(s)
        if tid is None:
            tid = "-untraced-"
        groups.setdefault(tid, []).append(s)
    if len(groups) > 1 and "-untraced-" in groups and len(phase_spans) != len(
        groups["-untraced-"]
    ):
        # Mixed traced + untraced streams: the untraced leftovers cannot be
        # attributed to any repair; drop them rather than invent a DAG.
        del groups["-untraced-"]

    # Umbrella spans carry repair metadata (repair_id, strategy, helpers,
    # slices).
    meta_by_tid: Dict[str, Dict[str, object]] = {}
    for s in all_spans:
        if s.category not in UMBRELLA_CATEGORIES:
            continue
        tid = _span_trace_id(s)
        if tid is None:
            continue
        info = meta_by_tid.setdefault(tid, {})
        for key in ("repair_id", "strategy"):
            val = s.attrs.get(key)
            if isinstance(val, str) and val:
                info.setdefault(key, val)
        for key in ("helpers", "slices"):
            val = s.attrs.get(key)
            if isinstance(val, int) and val > 0:
                info.setdefault(key, val)

    dags: List[RepairDag] = []
    for tid, members in groups.items():
        nodes: List[DagNode] = []
        seen_gids: set = set()
        for s in members:
            gid = _gid_of(s)
            if gid in seen_gids:
                gid = f"{gid}~{s.span_id}"
            seen_gids.add(gid)
            off = offsets.get(s.node, 0.0)
            explicit = _has_explicit_causality(s)
            deps: List[str] = []
            raw_deps = s.attrs.get("deps")
            if isinstance(raw_deps, list):
                deps = [d for d in raw_deps if isinstance(d, str) and d]
            nodes.append(
                DagNode(
                    gid=gid,
                    span=s,
                    phase=_phase_of(s),
                    node=s.node,
                    start=s.start - off,
                    end=s.end - off,
                    deps=deps,
                    explicit=explicit,
                )
            )
        by_gid = {n.gid: n for n in nodes}
        _infer_edges(nodes, eps=eps)
        _add_ingress_edges(nodes)
        # Drop dangling and order-violating edges so the graph is acyclic.
        for n in nodes:
            n.deps = [
                g
                for g in dict.fromkeys(n.deps)
                if g in by_gid
                and g != n.gid
                and _node_key(by_gid[g]) < _node_key(n)
            ]
        info = meta_by_tid.get(tid, {})
        repair_id = info.get("repair_id")
        if repair_id is None:
            rids = {
                s.attrs.get("repair_id")
                for s in members
                if isinstance(s.attrs.get("repair_id"), str)
            }
            if len(rids) == 1:
                repair_id = next(iter(rids))
        helpers = info.get("helpers")
        slices = info.get("slices", 1)
        dags.append(
            RepairDag(
                trace_id=tid,
                repair_id=repair_id if isinstance(repair_id, str) else None,
                strategy=(
                    info["strategy"]
                    if isinstance(info.get("strategy"), str)
                    else None
                ),
                helpers=helpers if isinstance(helpers, int) else None,
                clock=clock,
                nodes={n.gid: n for n in nodes},
                offsets=dict(offsets),
                slices=slices if isinstance(slices, int) else 1,
            )
        )
    dags.sort(
        key=lambda d: min(
            (n.start for n in d.nodes.values()), default=float("inf")
        )
    )
    return dags
