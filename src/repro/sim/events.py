"""Minimal discrete-event engine: an event heap and a virtual clock.

Callback-based rather than coroutine-based: actors (chunk servers, the
meta-server, clients) register handler methods; the engine orders them in
virtual time.  Determinism matters for reproducibility, so ties break on a
monotonically increasing sequence number.

A *virtual instant* is every event at one value of ``now``.  Work that
only matters once an instant is over (the flow network's rate solve) is
registered with :meth:`Simulation.at_instant_end` and runs after the
instant's last event, before the clock advances.  Such a callback is not
an event: it is not counted in ``events_executed`` and is invisible to
the profiler and clock observers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import causal


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`.

    Each event captures the ambient causal :class:`~repro.obs.causal.
    SpanContext` at schedule time and rebinds it while the callback runs,
    so a traced repair's context flows through the virtual-time gap between
    cause (the code that scheduled) and effect (the callback) exactly like
    asyncio's contextvars copy does in live mode.  ``ctx`` is None — one
    attribute load, no other cost — whenever no repair is being traced.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "ctx")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: "Callable[..., None]",
        args: "Tuple[Any, ...]",
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.ctx = causal.current()

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1); heap entry is skipped)."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Simulation:
    """The event loop.  ``now`` is virtual seconds since simulation start."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: "List[Event]" = []
        self._seq = itertools.count()
        self._running = False
        #: Events executed so far — a plain int (no obs dependency: this
        #: is the innermost loop) that ``repro trace`` snapshots into the
        #: ``sim.events.executed`` counter after a recorded run.
        self.events_executed = 0
        #: Clock observers, called as ``fn(now)`` after every executed
        #: event.  They piggyback on the existing event stream instead of
        #: scheduling their own events, so telemetry sampling cannot
        #: perturb the heap (no extra seq numbers, no extra events,
        #: identical tie-breaking) — results with sampling on are
        #: bit-identical to results with it off.
        self._clock_observers: "List[Callable[[float], None]]" = []
        #: Optional event profiler (see :mod:`repro.obs.profiler`): when
        #: set, ``step()`` reports each executed event's callback and the
        #: virtual-time advance it accounted for.  Strictly read-only —
        #: like clock observers it cannot schedule events or touch the
        #: heap, so profiled runs stay bit-identical.  None costs one
        #: attribute load and a branch per event.
        self.profiler: "Optional[Any]" = None
        #: Callbacks waiting for the current virtual instant to end
        #: (:meth:`at_instant_end`); an empty list is the only per-event
        #: cost when nothing waits.  Events at ``now`` numbered after
        #: ``_instant_end_seq`` wait for them.
        self._instant_end: "List[Callable[[], None]]" = []
        self._instant_end_seq = 0

    def set_profiler(self, profiler: "Optional[Any]") -> None:
        """Attach (or with None, detach) a read-only event profiler.

        ``profiler.observe_event(callback, dt)`` is called after each
        executed event with the virtual-time gap ``dt`` the event closed.
        See :class:`repro.obs.profiler.VirtualProfiler`.
        """
        self.profiler = profiler

    def add_clock_observer(self, observer: "Callable[[float], None]") -> None:
        """Call ``observer(now)`` after each executed event.

        Observers must not schedule events or mutate simulation state;
        they are read-only taps for telemetry sampling.
        """
        self._clock_observers.append(observer)

    def remove_clock_observer(
        self, observer: "Callable[[float], None]"
    ) -> None:
        """Detach a previously added clock observer (no-op if absent)."""
        try:
            self._clock_observers.remove(observer)
        except ValueError:
            pass

    def schedule(
        self, delay: float, callback: "Callable[..., None]", *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: "Callable[..., None]", *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self.now})"
            )
        event = Event(time, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def _schedule_as_of(
        self, seq: int, time: float, callback: "Callable[..., None]", *args: Any
    ) -> Event:
        """``schedule_at`` under a number drawn earlier from ``_seq``.

        The event breaks ties as if it had been scheduled when ``seq`` was
        drawn (see :meth:`at_instant_end`).
        """
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, event)
        return event

    def at_instant_end(self, callback: "Callable[[], None]") -> int:
        """Run ``callback()`` once, before the clock next advances.

        Pending callbacks run after the last event at ``now`` (from
        :meth:`peek_time` or :meth:`step`, whichever looks past ``now``
        first, also when no event is pending at all) -- or sooner: right
        before an event at ``now`` that was scheduled after the latest
        call here.  So whatever a callback schedules under the returned
        number sorts exactly as if it had been scheduled by that call.
        A callback is not an event: not counted in ``events_executed``,
        not seen by the profiler or clock observers.  Registering a
        pending callback again only moves that bound.

        Returns a fresh sequence number for :meth:`_schedule_as_of`.
        """
        if callback not in self._instant_end:
            self._instant_end.append(callback)
        self._instant_end_seq = seq = next(self._seq)
        return seq

    def _end_instant(self) -> None:
        callbacks, self._instant_end = self._instant_end, []
        for callback in callbacks:
            callback()

    def peek_time(self) -> "Optional[float]":
        """Time of the next pending event, or None if the heap is empty.

        Ends the current instant first when the next event lies later.
        """
        heap = self._heap
        while True:
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
            if self._instant_end and (not heap or heap[0].time > self.now):
                self._end_instant()
                continue
            return heap[0].time if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns False when nothing is pending."""
        heap = self._heap
        while heap or self._instant_end:
            if self._instant_end and (
                not heap
                or heap[0].time > self.now
                or heap[0].seq > self._instant_end_seq
            ):
                self._end_instant()
                continue
            event = heapq.heappop(heap)
            if event.cancelled:
                continue
            previous = self.now
            self.now = event.time
            self.events_executed += 1
            if event.ctx is None:
                event.callback(*event.args)
            else:
                token = causal.activate(event.ctx)
                try:
                    event.callback(*event.args)
                finally:
                    causal.restore(token)
            profiler = self.profiler
            if profiler is not None:
                profiler.observe_event(event.callback, event.time - previous)
            for observer in self._clock_observers:
                observer(self.now)
            return True
        return False

    def run(self, until: "Optional[float]" = None) -> float:
        """Run events until the heap drains (or past ``until``).

        Returns the final clock value.  With ``until``, events scheduled at
        or before the horizon run and the clock then advances to exactly
        ``until``.
        """
        if self._running:
            raise SimulationError("simulation is not re-entrant")
        self._running = True
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
        return self.now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Drain the heap with a runaway guard."""
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely a loop"
                )
        return self.now
