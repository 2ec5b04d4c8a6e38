"""Max-min fair flow network — the model behind Theorem 1's measurements."""

import pytest

from repro.codes import ReedSolomonCode
from repro.core.single_repair import run_single_repair
from repro.errors import SimulationError
from repro.fs import cluster as cluster_module
from repro.fs.cluster import StorageCluster
from repro.obs import causal
from repro.qos.admission import AdmissionConfig, AdmissionController
from repro.sim.events import Simulation
from repro.sim.network import FlowNetwork, Link
from tests.eager_network import EagerFlowNetwork


@pytest.fixture
def net():
    sim = Simulation()
    return sim, FlowNetwork(sim)


def test_single_flow_takes_size_over_capacity(net):
    sim, network = net
    link = Link("l", 100.0)
    done = []
    network.start_flow([link], 500.0, done.append)
    sim.run()
    assert done and done[0].finish_time == pytest.approx(5.0)


def test_two_flows_share_a_link_fairly(net):
    """k flows into one link each get B/k — the repair-site bottleneck."""
    sim, network = net
    link = Link("l", 100.0)
    done = []
    network.start_flow([link], 100.0, done.append)
    network.start_flow([link], 100.0, done.append)
    sim.run()
    assert [f.finish_time for f in done] == pytest.approx([2.0, 2.0])


def test_k_flows_serialize_to_k_c_over_b(net):
    """Traditional RS repair: k chunks into one ingress = k*C/B total."""
    sim, network = net
    ingress = Link("dst:in", 125.0)
    k, C = 6, 125.0
    done = []
    for i in range(k):
        egress = Link(f"src{i}:out", 125.0)
        network.start_flow([egress, ingress], C, done.append)
    sim.run()
    assert max(f.finish_time for f in done) == pytest.approx(k * 1.0)


def test_disjoint_flows_full_rate(net):
    """PPR's per-step transfers are link-disjoint: each gets full B."""
    sim, network = net
    done = []
    for i in range(4):
        a = Link(f"a{i}", 100.0)
        b = Link(f"b{i}", 100.0)
        network.start_flow([a, b], 100.0, done.append)
    sim.run()
    assert all(f.finish_time == pytest.approx(1.0) for f in done)


def test_released_bandwidth_speeds_up_survivors(net):
    sim, network = net
    link = Link("l", 100.0)
    done = {}
    network.start_flow([link], 50.0, lambda f: done.setdefault("short", f))
    network.start_flow([link], 150.0, lambda f: done.setdefault("long", f))
    sim.run()
    # Short: shares 50 B/s until t=1. Long: 50 bytes by t=1, then 100 B/s.
    assert done["short"].finish_time == pytest.approx(1.0)
    assert done["long"].finish_time == pytest.approx(2.0)


def test_max_min_with_bottleneck_and_free_link(net):
    sim, network = net
    shared = Link("shared", 100.0)
    private = Link("private", 1000.0)
    done = {}
    network.start_flow([shared], 100.0, lambda f: done.setdefault("a", f))
    network.start_flow(
        [shared, private], 100.0, lambda f: done.setdefault("b", f)
    )
    sim.run()
    # Both bottlenecked at shared: 50 B/s each.
    assert done["a"].finish_time == pytest.approx(2.0)
    assert done["b"].finish_time == pytest.approx(2.0)


def test_zero_size_flow_completes_immediately(net):
    sim, network = net
    link = Link("l", 100.0)
    done = []
    network.start_flow([link], 0.0, done.append)
    sim.run()
    assert done and done[0].finish_time == 0.0


def test_cancel_flow(net):
    sim, network = net
    link = Link("l", 100.0)
    done = []
    flow = network.start_flow([link], 1000.0, done.append)
    other = network.start_flow([link], 100.0, done.append)
    network.cancel_flow(flow)
    sim.run()
    assert len(done) == 1
    assert done[0] is other
    # Full bandwidth after the cancel at t=0.
    assert other.finish_time == pytest.approx(1.0)


def test_link_byte_accounting(net):
    sim, network = net
    link = Link("l", 100.0)
    network.start_flow([link], 250.0, lambda f: None)
    sim.run()
    assert link.bytes_carried == pytest.approx(250.0)


def test_flow_arrival_midway_reshapes_rates(net):
    sim, network = net
    link = Link("l", 100.0)
    done = {}
    network.start_flow([link], 100.0, lambda f: done.setdefault("first", f))
    sim.schedule(
        0.5,
        lambda: network.start_flow(
            [link], 100.0, lambda f: done.setdefault("second", f)
        ),
    )
    sim.run()
    # First: 50 bytes by 0.5, then 50 B/s -> finishes at 1.5.
    assert done["first"].finish_time == pytest.approx(1.5)
    # Second: 50 B/s until 1.5 (50 bytes), then 100 B/s -> 2.0.
    assert done["second"].finish_time == pytest.approx(2.0)


def test_path_that_repeats_a_link_is_rejected(net):
    """The solver counts a flow once per link in ``len(link.flows)`` but
    takes its share once per hop; a repeated link would carry twice its
    capacity."""
    sim, network = net
    link = Link("a", 100.0)
    with pytest.raises(SimulationError, match="repeat"):
        network.start_flow([link, link], 100.0)
    with pytest.raises(SimulationError, match="repeat"):
        network.start_flow([link, Link("b", 100.0), link], 100.0)
    assert not network.active and not link.flows and not network._in_use


def test_flow_with_only_infinite_shares_gets_rate_zero(net):
    """No link bounds the flow, so no round freezes it: it ends the solve
    at rate 0, not at the solver's unsolved mark, and the completion timer
    refuses it."""
    sim, network = net
    flow = network.start_flow([Link("free", float("inf"))], 100.0)
    with pytest.raises(SimulationError, match="zero rate"):
        sim.run()
    assert flow.rate == 0.0


def test_link_flows_stay_a_subset_of_active(net):
    """``_solve`` counts a link's unfrozen flows as ``len(link.flows)``,
    which is only right while every flow on a link is an active one, and
    scans the maintained in-use list, which must hold exactly the links
    active flows cross, in name order.  Drive every way a flow enters or
    leaves the fabric and check both after each call and each simulation
    event."""
    sim, network = net
    network.admission = AdmissionController(
        AdmissionConfig(repair_rate=100.0, repair_burst=100.0, repair_floor=1.0)
    )
    links = [Link(f"l{i}", 100.0 * (i + 1)) for i in range(4)]

    def check():
        for link in links:
            assert link.flows <= network.active
            assert all(link in flow.path for flow in link.flows)
        for flow in network.active:
            assert all(flow in link.flows for link in flow.path)
        assert not network._pending & network.active
        in_use = sorted(
            {link for flow in network.active for link in flow.path},
            key=lambda link: link.name,
        )
        assert network._in_use == in_use
        assert network._in_use_names == [link.name for link in in_use]

    def chained(flow):  # a completion that starts the next hop's flow
        network.start_flow(links[2:], 50.0, src="b", dst="c")
        check()

    started = [
        network.start_flow(links[:2], 300.0, chained, src="a", dst="b"),
        network.start_flow(links[1:3], 200.0, src="b", dst="c"),
        network.start_flow([links[3]], 0.0, src="c", dst="d"),
        # The bucket holds 100 bytes: the first repair flow is admitted,
        # the next two queue outside the fabric.
        network.start_flow([links[0]], 100.0, traffic_class="repair",
                           src="a", dst="d"),
        network.start_flow(links[:3], 400.0, traffic_class="repair",
                           src="a", dst="c"),
        network.start_flow([links[3]], 150.0, traffic_class="repair",
                           src="d", dst="a"),
    ]
    check()
    assert len(network._pending) == 2
    network.cancel_flow(started[1])  # active
    check()
    network.cancel_flow(started[5])  # still queued at admission
    check()
    network.cancel_flow(started[1])  # already gone: a no-op
    check()
    sim.schedule(0.5, network.cancel_flows_touching, "c")  # crash mid-run
    sim.schedule(1.0, network.start_flow, links, 500.0)
    events = 0
    while sim.step():
        events += 1
        check()
    assert events > 5 and not network.active and not network._pending
    assert all(not link.flows for link in links) and not network._in_use


def count_solves(monkeypatch, network):
    """Count progressive-filling runs of ``network``."""
    calls = []
    solve = network._solve
    monkeypatch.setattr(network, "_solve", lambda: (calls.append(1), solve()))
    return calls


def test_fan_in_started_by_one_event_costs_one_solve(net, monkeypatch):
    """k = 8 flows into one ingress, started by one event: one solve
    before the clock advances, not one per flow."""
    sim, network = net
    solves = count_solves(monkeypatch, network)
    ingress = Link("dst:in", 800.0)

    def fan_in():
        for i in range(8):
            network.start_flow([Link(f"src{i}:out", 800.0), ingress], 100.0)

    sim.schedule(1.0, fan_in)
    assert sim.step() and sim.now == 1.0
    assert solves == []  # nothing solved mid-instant
    assert sim.peek_time() == 2.0  # B/k each: 100 bytes at 100 B/s
    assert len(solves) == 1


def test_completion_that_starts_a_flow_costs_one_solve(net, monkeypatch):
    sim, network = net
    link = Link("l", 100.0)
    network.start_flow(
        [link], 100.0, lambda flow: network.start_flow([link], 50.0)
    )
    assert sim.peek_time() == 1.0  # set-up is solved by the first peek
    solves = count_solves(monkeypatch, network)
    assert sim.step() and sim.now == 1.0  # completes, starts the next hop
    assert sim.peek_time() == 1.5
    assert len(solves) == 1


def test_completion_runs_in_the_context_of_the_last_change(net):
    """The timer re-armed at instant end carries the causal context the
    change that disarmed it ran in, as a timer armed by it would."""
    sim, network = net
    link = Link("l", 100.0)
    seen = []
    ctx = causal.SpanContext(trace_id="t", span_id="s")

    def traced_start():
        with causal.bound(ctx):
            network.start_flow([link], 100.0)

    network.start_flow([link], 300.0, lambda f: seen.append(causal.current()))
    sim.schedule(0.5, traced_start)
    sim.run()
    assert seen == [ctx]


def test_utilization_solves_stale_rates_without_touching_the_heap(net):
    sim, network = net
    link = Link("l", 100.0)
    network.start_flow([link], 100.0)
    network.start_flow([link], 100.0)
    assert network.utilization(link) == pytest.approx(1.0)
    assert [f.rate for f in network.active] == [50.0, 50.0]
    assert sim._heap == []  # the timer is armed at instant end
    assert sim.peek_time() == 2.0


def test_sim_telemetry_matches_eager_oracle(monkeypatch):
    """Sampled link utilization (read mid-instant by clock observers)
    equals the solve-on-every-change network's, sample for sample."""

    def run():
        cluster = StorageCluster.smallsite()
        store = cluster.enable_telemetry(interval=0.01)
        stripe = cluster.write_stripe(ReedSolomonCode(6, 3), "64MiB")
        result = run_single_repair(cluster, stripe, 0, strategy="star")
        series = {
            (s.name, tuple(sorted(s.labels.items()))): s.samples()
            for s in store.all_series()
            if s.name in ("net.ingress_util", "net.egress_util")
        }
        return series, result.duration, cluster.sim.events_executed

    deferred = run()
    monkeypatch.setattr(cluster_module, "FlowNetwork", EagerFlowNetwork)
    eager = run()
    assert deferred == eager
    assert any(v > 0 for samples in deferred[0].values() for _, v in samples)
