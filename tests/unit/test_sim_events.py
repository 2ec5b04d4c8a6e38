"""Discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulation


def test_events_run_in_time_order():
    sim = Simulation()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_schedule_order():
    sim = Simulation()
    log = []
    sim.schedule(1.0, log.append, 1)
    sim.schedule(1.0, log.append, 2)
    sim.schedule(1.0, log.append, 3)
    sim.run()
    assert log == [1, 2, 3]


def test_cancellation():
    sim = Simulation()
    log = []
    event = sim.schedule(1.0, log.append, "x")
    sim.schedule(2.0, log.append, "y")
    event.cancel()
    sim.run()
    assert log == ["y"]


def test_schedule_from_callback():
    sim = Simulation()
    log = []

    def chain():
        log.append(sim.now)
        if sim.now < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert log == [1.0, 2.0, 3.0]


def test_run_until_horizon():
    sim = Simulation()
    log = []
    sim.schedule(1.0, log.append, "a")
    sim.schedule(5.0, log.append, "b")
    sim.run(until=2.0)
    assert log == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert log == ["a", "b"]


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulation()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_peek_time_skips_cancelled():
    sim = Simulation()
    e = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e.cancel()
    assert sim.peek_time() == 2.0


def test_step_returns_false_when_empty():
    assert Simulation().step() is False


def test_runaway_guard():
    sim = Simulation()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_instant_end_runs_after_the_instant_before_the_clock_moves():
    sim = Simulation()
    log = []

    def event(name):
        log.append((name, sim.now))
        if name == "a":
            sim.at_instant_end(lambda: log.append(("end", sim.now)))

    sim.schedule(1.0, event, "a")
    sim.schedule(1.0, event, "b")  # same instant: runs before the end
    sim.schedule(2.0, event, "c")
    sim.run()
    assert log == [("a", 1.0), ("b", 1.0), ("end", 1.0), ("c", 2.0)]


def test_instant_end_is_not_an_event():
    sim = Simulation()
    seen = []
    sim.add_clock_observer(seen.append)
    sim.schedule(1.0, sim.at_instant_end, lambda: None)
    assert sim.run_until_idle() == 1.0
    assert sim.events_executed == 1 and seen == [1.0]


def test_instant_end_runs_when_nothing_is_pending():
    """Set-up outside any event is flushed by the next peek or step."""
    sim = Simulation()
    log = []
    sim.at_instant_end(lambda: log.append("end"))
    assert sim.peek_time() is None and log == ["end"]
    sim.at_instant_end(lambda: log.append("again"))
    assert sim.step() is False and log == ["end", "again"]


def test_instant_end_registers_a_callback_once():
    sim = Simulation()
    log = []

    def callback():
        log.append(sim.now)

    first = sim.at_instant_end(callback)
    second = sim.at_instant_end(callback)
    assert second > first  # a fresh tie-break number per call
    sim.run()
    assert log == [0.0]


def test_instant_end_precedes_events_scheduled_after_it():
    """An event at ``now`` scheduled after the latest registration waits
    for the callbacks; what they schedule under the returned number sorts
    ahead of it, as if scheduled at registration."""
    sim = Simulation()
    log = []

    def change():
        seq = sim.at_instant_end(
            lambda: sim._schedule_as_of(seq, sim.now, log.append, "timer")
        )
        sim.schedule(0.0, log.append, "later")

    sim.schedule(1.0, log.append, "earlier")
    sim.schedule(1.0, change)
    sim.schedule(1.0, log.append, "queued")
    sim.run()
    assert log == ["earlier", "queued", "timer", "later"]
