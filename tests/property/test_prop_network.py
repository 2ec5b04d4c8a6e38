"""Property-based tests: the flow network conserves bytes, respects caps
and matches the solve-on-every-change oracle bit for bit."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.qos.admission import AdmissionConfig, AdmissionController
from repro.sim.events import Simulation
from repro.sim.network import FlowNetwork, Link
from repro.sim.topology import FatTreeTopology
from tests.eager_network import EagerFlowNetwork


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e6),  # size
            st.integers(min_value=0, max_value=3),  # src link index
            st.integers(min_value=0, max_value=3),  # dst link index
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=10.0, max_value=1e5),  # capacity
)
@settings(max_examples=60, deadline=None)
def test_all_flows_complete_and_conserve_bytes(flow_specs, capacity):
    sim = Simulation()
    network = FlowNetwork(sim)
    egress = [Link(f"e{i}", capacity) for i in range(4)]
    ingress = [Link(f"i{i}", capacity) for i in range(4)]
    finished = []
    total = 0.0
    for size, src, dst in flow_specs:
        total += size
        network.start_flow([egress[src], ingress[dst]], size, finished.append)
    sim.run()
    assert len(finished) == len(flow_specs)
    assert network.total_bytes_moved == pytest.approx(total, rel=1e-6)
    assert not network.active


@given(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=100.0, max_value=1e5),
    st.floats(min_value=10.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_shared_link_completion_lower_bound(n_flows, size, capacity):
    """n equal flows on one link finish no earlier than n*size/capacity."""
    sim = Simulation()
    network = FlowNetwork(sim)
    link = Link("l", capacity)
    finished = []
    for _ in range(n_flows):
        network.start_flow([link], size, finished.append)
    sim.run()
    expected = n_flows * size / capacity
    assert sim.now == pytest.approx(expected, rel=1e-6)


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=2, max_size=8),
    st.floats(min_value=10.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_completion_order_matches_size_order_on_shared_link(sizes, capacity):
    """Equal shares: smaller flows on one link always finish first."""
    sim = Simulation()
    network = FlowNetwork(sim)
    link = Link("l", capacity)
    finish_times = {}
    for i, size in enumerate(sizes):
        network.start_flow(
            [link], size, lambda f, i=i: finish_times.setdefault(i, sim.now)
        )
    sim.run()
    order = sorted(range(len(sizes)), key=lambda i: finish_times[i])
    size_order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    # Ties can permute; compare by size values instead of indices.
    assert [round(sizes[i], 6) for i in order] == [
        round(sizes[i], 6) for i in size_order
    ]


# ----------------------------------------------------------------------
# Differential: one solve per virtual instant == a solve on every change
# ----------------------------------------------------------------------
SERVERS = [f"S{i}" for i in range(6)]
SIZES = st.one_of(
    st.sampled_from([0.0, 125_000.0, 250_000.0, 1_000_000.0]),
    st.floats(min_value=1.0, max_value=2e6),
)
OPS = st.tuples(
    # None: applied before the run, outside any event.  A grid of times
    # makes separate events share an instant.
    st.sampled_from([None, 0.0, 0.125, 0.25, 0.5]),
    st.sampled_from(["start", "fanin", "chain", "paced", "cancel", "kill"]),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    SIZES,
    st.integers(min_value=2, max_value=5),
)


def run_schedule(network_cls, ops):
    """Play ``ops`` on a 2-rack fat-tree with an incast-prone ingress."""
    sim = Simulation()
    network = network_cls(sim)
    network.admission = AdmissionController(
        AdmissionConfig(repair_rate=4e5, repair_burst=2e5, repair_floor=1.0)
    )
    topology = FatTreeTopology(SERVERS, 1e6, 3, 2.0)
    topology.ingress["S0"].incast_threshold = 2
    topology.ingress["S0"].incast_gamma = 0.5
    flows = []

    def start(src, dst, size, on_complete=None, cls="foreground"):
        src %= len(SERVERS)
        dst %= len(SERVERS)
        if src == dst:
            dst = (dst + 1) % len(SERVERS)
        a, b = SERVERS[src], SERVERS[dst]
        flows.append(network.start_flow(
            topology.path(a, b), size, on_complete,
            src=a, dst=b, traffic_class=cls,
        ))

    def apply(kind, a, b, size, k):
        if kind == "start":
            start(a, b, size)
        elif kind == "fanin":  # k equal flows into one ingress
            for i in range(k):
                start(b + 1 + i, b, size)
        elif kind == "chain":  # the completion starts the next hop
            start(a, b, size, lambda f: start(b, a + k, size / k))
        elif kind == "paced":  # may attach after younger flows
            start(a, b, size, cls="repair")
        elif kind == "cancel" and flows:
            network.cancel_flow(flows[(a * 6 + b) % len(flows)])
        elif kind == "kill":
            network.cancel_flows_touching(SERVERS[a])

    for at, kind, a, b, size, k in ops:
        if at is None:
            apply(kind, a, b, size, k)
        else:
            sim.schedule_at(at, apply, kind, a, b, size, k)
    sim.run()
    return {
        "finish": [flow.finish_time for flow in flows],
        "events": sim.events_executed,
        "clock": sim.now,
        "bytes": network.total_bytes_moved,
        "class_bytes": network.class_bytes_moved,
        "links": [
            (link.name, link.bytes_carried)
            for link in topology.all_links()
        ],
    }


@given(st.lists(OPS, min_size=1, max_size=14))
# A timer armed at set-up ties with an event scheduled after it.
@example([(None, "start", 0, 0, 0.0, 2), (None, "chain", 0, 0, 125000.0, 2),
          (0.125, "start", 0, 0, 0.0, 2)])
# Two equal flows finish together: the second one's timer is due at
# ``now`` and must fire before a zero-size flow started later that instant.
@example([(None, "start", 0, 0, 0.0, 2)] * 3
         + [(None, "start", 0, 0, 125000.0, 2),
            (None, "chain", 0, 0, 125000.0, 2), (0.25, "chain", 0, 0, 0.0, 2)])
# Equal shares tie between links: the scan must visit in-use links in
# name order, not in the order they first carried a flow.
@example([(None, "fanin", 0, 4, 125000.0, 3),
          (None, "start", 1, 0, 125000.0, 2),
          (None, "start", 1, 0, 125000.0, 2)])
@settings(max_examples=300, deadline=None)
def test_instant_solve_matches_eager_oracle_exactly(ops):
    """Finish times, event count and every byte counter are bit-identical
    to the solver that re-solves on every flow change."""
    deferred = run_schedule(FlowNetwork, ops)
    eager = run_schedule(EagerFlowNetwork, ops)
    assert deferred == eager


@pytest.mark.slow
@given(st.lists(OPS, min_size=1, max_size=14))
@settings(max_examples=4000, deadline=None)
def test_instant_solve_matches_eager_oracle_deep(ops):
    """The differential above at the depth where ordering bugs showed up."""
    assert run_schedule(FlowNetwork, ops) == run_schedule(EagerFlowNetwork, ops)
