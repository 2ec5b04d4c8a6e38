"""Repair plans: the communication schedule of a reconstruction.

A plan is a DAG of transfers between the recipe's helper chunks and the
repair destination, organized into logical timesteps.  :data:`SCHEMES` at
the bottom of this module is the one definition of a repair scheme; the
strategies with a plan builder are:

``star``
    Traditional repair (paper §3): every helper sends its raw read rows to
    the destination simultaneously; the destination's ingress link carries
    all ``k`` chunks and becomes the bottleneck.

``staggered``
    The strawman of §4.2: same star topology but transfers serialized
    one-by-one, avoiding congestion by under-utilizing every link.

``ppr``
    The paper's contribution (§4.1): helpers compute *partial results*
    locally and a binomial reduction tree XOR-merges them toward the
    destination in ``ceil(log2(k+1))`` timesteps; at every timestep all
    transfers have distinct sources and destinations, so each link carries
    at most one (partial-)chunk per step.

``chain``
    Repair pipelining's topology (Li et al., ATC'17 — the line of
    follow-on work the paper seeded): helpers form a path and, combined
    with slicing, network time approaches a single C/B regardless of k.

The PPR tree matches the paper's Fig. 2: with helpers ``h1..hk`` and the
destination last, at step ``t`` the node at reversed position ``q`` with
``q mod 2^(t+1) == 2^t`` sends to ``q - 2^t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import PlanError, UnknownSchemeError
from repro.codes.recipe import RepairRecipe
from repro.repair import theory

#: Sentinel node id for the repair destination (repair site / client).
DESTINATION = -1


@dataclass(frozen=True)
class TransferSpec:
    """One edge of the plan: ``src`` ships rows to ``dst`` at ``step``.

    ``rows`` are lost-chunk row indices for partial results (PPR) or helper
    row indices for raw transfers (star/staggered); ``fraction`` is the
    transferred volume in units of one chunk.  ``raw`` distinguishes the
    two payload kinds.
    """

    src: int
    dst: int
    step: int
    rows: FrozenSet[int]
    fraction: float
    raw: bool


@dataclass(frozen=True)
class RepairPlan:
    """A complete repair schedule for one lost chunk."""

    strategy: str
    recipe: RepairRecipe
    transfers: Tuple[TransferSpec, ...]
    num_steps: int

    def __post_init__(self) -> None:
        scheme(self.strategy, buildable=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def raw(self) -> bool:
        """True when helpers ship raw rows for the destination to decode
        centrally; False when partial results merge en route."""
        return any(t.raw for t in self.transfers)

    @property
    def participants(self) -> "Tuple[int, ...]":
        """All nodes involved: helpers plus the destination sentinel."""
        return tuple(self.recipe.helpers) + (DESTINATION,)

    def transfers_at(self, step: int) -> "List[TransferSpec]":
        return [t for t in self.transfers if t.step == step]

    def incoming(self, node: int) -> "List[TransferSpec]":
        return [t for t in self.transfers if t.dst == node]

    def outgoing(self, node: int) -> "List[TransferSpec]":
        return [t for t in self.transfers if t.src == node]

    def children_of(self, node: int) -> "List[int]":
        """Nodes whose transfer feeds ``node`` (aggregation inputs)."""
        return [t.src for t in self.incoming(node)]

    # ------------------------------------------------------------------
    # Closed-form cost metrics (the simulator measures the real thing)
    # ------------------------------------------------------------------
    def total_bytes(self, chunk_size: float) -> float:
        """Total bytes crossing the network."""
        return sum(t.fraction for t in self.transfers) * chunk_size

    def max_bytes_through_node(self, chunk_size: float) -> float:
        """Max cumulative ingress+egress bytes at any single node."""
        per_node: Dict[int, float] = {}
        for t in self.transfers:
            per_node[t.src] = per_node.get(t.src, 0.0) + t.fraction
            per_node[t.dst] = per_node.get(t.dst, 0.0) + t.fraction
        return max(per_node.values()) * chunk_size

    def max_ingress_bytes(self, chunk_size: float) -> float:
        """Max cumulative bytes into any single node's ingress link."""
        per_node: Dict[int, float] = {}
        for t in self.transfers:
            per_node[t.dst] = per_node.get(t.dst, 0.0) + t.fraction
        return max(per_node.values()) * chunk_size

    def estimate_transfer_time(
        self, chunk_size: float, bandwidth_bytes_per_sec: float
    ) -> float:
        """Idealized network time on homogeneous access links.

        A step costs its busiest ingress link.  Star: the destination's
        ingress serializes every transfer of its one step.  Staggered:
        one transfer per step — the same total.  PPR and chain: within a
        step transfers are link-disjoint, so a step costs its largest.
        """
        total = 0.0
        for step in range(self.num_steps):
            ingress: Dict[int, float] = {}
            for t in self.transfers_at(step):
                ingress[t.dst] = ingress.get(t.dst, 0) + t.fraction
            if ingress:
                total += max(ingress.values())
        return total * chunk_size / bandwidth_bytes_per_sec

    def estimate_pipelined_transfer_time(
        self,
        chunk_size: float,
        bandwidth_bytes_per_sec: float,
        num_slices: int,
    ) -> float:
        """Idealized network time when transfers are cut into slices.

        With S slices flowing in waves through a partial-result plan of
        depth D, the pipeline fills in D steps and drains S-1 more:
        ``(D + S - 1) * C / (S * B)``.  That wave term is only reachable
        when no single ingress link must carry more: a tree node with c
        incoming transfers still moves ``c * C`` through its ingress, so
        the estimate is the max of the wave time and the worst ingress
        backlog.  For the chain every node receives exactly one chunk, so
        large S approaches a single ``C/B`` — repair pipelining's headline
        result; for the PPR tree the destination's ``ceil(log2(k+1))``
        arrivals remain the floor.  Raw plans are not sliced.
        """
        if self.raw:
            return self.estimate_transfer_time(
                chunk_size, bandwidth_bytes_per_sec
            )
        if num_slices < 1:
            raise PlanError(f"num_slices must be >= 1, got {num_slices}")
        per_wave = chunk_size / num_slices / bandwidth_bytes_per_sec
        wave_time = (self.num_steps + num_slices - 1) * per_wave
        ingress_floor = (
            self.max_ingress_bytes(chunk_size) / bandwidth_bytes_per_sec
        )
        return max(wave_time, ingress_floor)

    def memory_footprint_bound(self, chunk_size: float) -> float:
        """Paper §4.3: max chunks any node holds simultaneously.

        A node holds one buffer per incoming transfer plus its own partial.
        """
        worst = 1
        for node in self.participants:
            held = len(self.incoming(node)) + (0 if node == DESTINATION else 1)
            worst = max(worst, held)
        return worst * chunk_size


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_star_plan(recipe: RepairRecipe) -> RepairPlan:
    """Traditional repair: all helpers → destination in one step, raw rows."""
    transfers = tuple(
        TransferSpec(
            src=helper,
            dst=DESTINATION,
            step=0,
            rows=recipe.term_for(helper).read_rows,
            fraction=recipe.raw_fraction(helper),
            raw=True,
        )
        for helper in recipe.helpers
    )
    return RepairPlan("star", recipe, transfers, num_steps=1)


def build_staggered_plan(recipe: RepairRecipe) -> RepairPlan:
    """§4.2 strawman: helpers → destination one at a time."""
    transfers = tuple(
        TransferSpec(
            src=helper,
            dst=DESTINATION,
            step=step,
            rows=recipe.term_for(helper).read_rows,
            fraction=recipe.raw_fraction(helper),
            raw=True,
        )
        for step, helper in enumerate(recipe.helpers)
    )
    return RepairPlan("staggered", recipe, transfers, num_steps=len(transfers))


def ppr_position_loads(k: int) -> "List[int]":
    """Aggregation receive-count per helper tree position.

    Position ``p`` (0-based; the destination sits after position k-1)
    corresponds to reversed index ``q = k - p``; the returned list says
    how many incoming transfers the node placed at each position handles.
    Used for §4.2's heterogeneous extension: put the servers with the
    fattest links where the aggregation load is.
    """
    total = k + 1
    receives = [0] * total  # indexed by q
    for step in range(theory.ppr_timesteps(k)):
        stride = 1 << step
        for q in range(stride, total, 2 * stride):
            receives[q - stride] += 1
    return [receives[total - 1 - p] for p in range(k)]


def build_ppr_plan(
    recipe: RepairRecipe,
    helper_order: "Sequence[int] | None" = None,
) -> RepairPlan:
    """The binomial reduction tree of §4.1 / Fig. 2.

    Nodes are ordered ``[h1 .. hk, DESTINATION]``; with reversed positions
    ``q`` (destination at q=0), node q sends to ``q - 2^t`` at the step t
    where ``q mod 2^(t+1) == 2^t``.  Transfer sizes account for sub-chunk
    recipes: a node ships the union of lost-chunk rows its subtree covers.

    ``helper_order`` optionally assigns helpers to tree positions (must be
    a permutation of ``recipe.helpers``) — §4.2: place high-capacity
    servers at the positions :func:`ppr_position_loads` marks as busy.
    """
    if helper_order is None:
        helpers = list(recipe.helpers)
    else:
        helpers = list(helper_order)
        if sorted(helpers) != sorted(recipe.helpers):
            raise PlanError(
                "helper_order must be a permutation of the recipe helpers"
            )
    if not helpers:
        raise PlanError("PPR needs at least one helper")
    num_steps = theory.ppr_timesteps(len(helpers))
    nodes = helpers + [DESTINATION]
    total = len(nodes)

    def node_at_q(q: int) -> int:
        return nodes[total - 1 - q]

    # Rows each node will ship = own partial rows ∪ rows received so far.
    own_rows: Dict[int, FrozenSet[int]] = {
        h: recipe.term_for(h).output_rows for h in helpers
    }
    own_rows[DESTINATION] = frozenset()
    accumulated = dict(own_rows)

    transfers: List[TransferSpec] = []
    for step in range(num_steps):
        stride = 1 << step
        pending: List[Tuple[int, int]] = []
        for q in range(stride, total, 2 * stride):
            pending.append((q, q - stride))
        for q_src, q_dst in pending:
            src = node_at_q(q_src)
            dst = node_at_q(q_dst)
            rows = accumulated[src]
            transfers.append(
                TransferSpec(
                    src=src,
                    dst=dst,
                    step=step,
                    rows=rows,
                    fraction=len(rows) / recipe.rows,
                    raw=False,
                )
            )
        # Apply merges after scheduling the whole step (sends are parallel).
        for q_src, q_dst in pending:
            src = node_at_q(q_src)
            dst = node_at_q(q_dst)
            accumulated[dst] = accumulated[dst] | accumulated[src]
    return RepairPlan("ppr", recipe, tuple(transfers), num_steps=num_steps)


def build_chain_plan(recipe: RepairRecipe) -> RepairPlan:
    """Repair pipelining's topology: helpers form a path to the destination.

    ``h1 -> h2 -> ... -> hk -> DESTINATION``: each node XORs its own
    partial into what it received and forwards.  Without slicing this is
    as slow as staggered transfer (k serialized hops); cut into S slices
    the hops overlap and total network time tends to ``C/B``.
    """
    helpers = list(recipe.helpers)
    accumulated: FrozenSet[int] = frozenset()
    transfers: List[TransferSpec] = []
    for step, helper in enumerate(helpers):
        accumulated = accumulated | recipe.term_for(helper).output_rows
        dst = helpers[step + 1] if step + 1 < len(helpers) else DESTINATION
        transfers.append(
            TransferSpec(
                src=helper,
                dst=dst,
                step=step,
                rows=accumulated,
                fraction=len(accumulated) / recipe.rows,
                raw=False,
            )
        )
    return RepairPlan("chain", recipe, tuple(transfers), num_steps=len(helpers))


# ----------------------------------------------------------------------
# The scheme table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scheme:
    """One repair scheme: its plan builder (None for pricing-only rows),
    its plan's step count ``depth(d)`` and destination ingress fan-in
    ``fanin(d)`` for ``d`` helpers, the reliability engine's slowdown per
    extra concurrent repair, and the closed form its network term follows.
    """

    name: str
    build: "Optional[Callable[[RepairRecipe], RepairPlan]]"
    depth: "Callable[[int], int]"
    fanin: "Callable[[int], int]"
    contention: float
    law: str

    def steps(self, helpers: int, num_slices: int = 1) -> float:
        """Serialized chunk transfers on the critical path of a repair
        from ``helpers`` sources cut into ``num_slices`` slices."""
        if helpers < 1:
            raise ValueError(f"helpers must be >= 1, got {helpers}")
        return theory.transfer_steps(
            self.depth(helpers), self.fanin(helpers), num_slices
        )


def _one(_helpers: int) -> int:
    return 1


def _each(helpers: int) -> int:
    return helpers


#: The repair schemes, in listing order.  ``traditional`` and ``mppr``
#: price as ``star`` and ``ppr`` for the reliability engine, with their
#: own contention.  Contention is calibrated against Table 1 (star
#: funnels k chunks into one link, PPR at most ceil(log2 k) into any)
#: and Fig 8 (m-PPR's weighted scheduling barely collides); staggering
#: spreads the funnel over time, and a chain gives every transfer its
#: own link.
SCHEMES: "Dict[str, Scheme]" = {
    row.name: row
    for row in (
        Scheme("traditional", None, _one, _each, 0.50, "k*C/B"),
        Scheme("star", build_star_plan, _one, _each, 0.50, "k*C/B"),
        Scheme("staggered", build_staggered_plan, _each, _each, 0.35,
               "k*C/B"),
        Scheme("ppr", build_ppr_plan, theory.ppr_timesteps,
               theory.ppr_timesteps, 0.20, "Theorem 1"),
        Scheme("chain", build_chain_plan, _each, _one, 0.15, "k*C/B"),
        Scheme("mppr", None, theory.ppr_timesteps, theory.ppr_timesteps,
               0.05, "Theorem 1"),
    )
}

#: The schemes with a plan builder: what ``--strategy`` accepts.
STRATEGIES = tuple(name for name, row in SCHEMES.items() if row.build)


def scheme(name: str, buildable: bool = False) -> Scheme:
    """The table row for ``name``; ``buildable`` also requires a plan.
    The one unknown-scheme error path (:class:`UnknownSchemeError`)."""
    row = SCHEMES.get(name)
    if row is None or (buildable and row.build is None):
        known = STRATEGIES if buildable else tuple(SCHEMES)
        raise UnknownSchemeError(
            f"unknown {'strategy' if buildable else 'scheme'} {name!r}; "
            f"pick from {known}"
        )
    return row


def build_plan(strategy: str, recipe: RepairRecipe) -> RepairPlan:
    """Build the plan of the named strategy."""
    return scheme(strategy, buildable=True).build(recipe)  # type: ignore[misc]
