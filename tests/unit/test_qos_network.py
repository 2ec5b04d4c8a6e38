"""QoS behavior of the flow network: shared fair-share, pacing, accounting.

The isolation regression the QoS subsystem pins down: foreground and
repair traffic are charged on the *same* max-min computation once
admitted — pacing shapes when repair bytes enter the fabric, never which
class a link favors afterwards.
"""

import pytest

from repro.qos.admission import AdmissionConfig, AdmissionController
from repro.sim.events import Simulation
from repro.sim.network import FlowNetwork, Link


def _net():
    sim = Simulation()
    return sim, FlowNetwork(sim)


class TestSharedFairShare:
    def test_classes_share_one_maxmin_computation(self):
        """A foreground and a repair flow on one link each get B/2."""
        sim, network = _net()
        link = Link("l0", 100.0)
        done = {}
        network.start_flow(
            [link], 100.0,
            lambda f: done.setdefault("fg", sim.now),
            traffic_class="foreground",
        )
        network.start_flow(
            [link], 100.0,
            lambda f: done.setdefault("rep", sim.now),
            traffic_class="repair",
        )
        sim.run()
        # Equal sizes at equal shares finish together at 2s — repair is
        # not deprioritized inside the fabric.
        assert done["fg"] == pytest.approx(2.0)
        assert done["rep"] == pytest.approx(2.0)
        assert network.class_bytes_moved["foreground"] == pytest.approx(100.0)
        assert network.class_bytes_moved["repair"] == pytest.approx(100.0)

    def test_per_class_byte_accounting(self):
        sim, network = _net()
        link = Link("l0", 1000.0)
        network.start_flow([link], 300.0, traffic_class="repair")
        network.start_flow([link], 200.0, traffic_class="degraded")
        network.start_flow([link], 100.0)  # defaults to foreground
        sim.run()
        assert network.class_bytes_moved == pytest.approx(
            {"repair": 300.0, "degraded": 200.0, "foreground": 100.0}
        )
        assert network.total_bytes_moved == pytest.approx(600.0)


class TestAdmissionIntegration:
    def _paced_net(self, rate=100.0, burst=100.0):
        sim, network = _net()
        network.admission = AdmissionController(
            AdmissionConfig(
                repair_rate=rate, repair_burst=burst, repair_floor=1.0
            )
        )
        return sim, network

    def test_repair_waits_out_the_bucket(self):
        sim, network = self._paced_net()
        link = Link("l0", 1e6)
        finished = []
        network.start_flow(
            [link], 100.0, finished.append, traffic_class="repair"
        )
        network.start_flow(
            [link], 200.0, finished.append, traffic_class="repair"
        )
        sim.run()
        assert len(finished) == 2
        # Flow 2 owed 200 bytes of debt at 100 B/s: admitted at t=2, and
        # its start_time stays at enqueue so queueing counts as latency.
        assert finished[1].duration >= 2.0

    def test_foreground_bypasses_admission(self):
        sim, network = self._paced_net()
        link = Link("l0", 100.0)
        finished = []
        network.start_flow(
            [link], 1e4, finished.append, traffic_class="foreground"
        )
        sim.run()
        # 1e4 bytes at 100 B/s: pure transfer time, zero admission wait.
        assert finished[0].duration == pytest.approx(100.0)

    def test_cancel_pending_flow_never_completes(self):
        sim, network = self._paced_net()
        link = Link("l0", 1e6)
        network.start_flow([link], 100.0, traffic_class="repair")
        finished = []
        pending = network.start_flow(
            [link], 500.0, finished.append, traffic_class="repair"
        )
        assert pending in network._pending
        network.cancel_flow(pending)
        sim.run()
        assert not finished
        assert pending.finish_time is None

    def test_crash_cancels_queued_flows_too(self):
        sim, network = self._paced_net()
        link = Link("l0", 1e6)
        network.start_flow(
            [link], 100.0, traffic_class="repair", src="s1", dst="s2"
        )
        network.start_flow(
            [link], 500.0, traffic_class="repair", src="s1", dst="s2"
        )
        cancelled = network.cancel_flows_touching("s1")
        assert cancelled == 2
        assert not network._pending
        sim.run()
        assert network.completed_flows == 0
