"""Sampling profiler: classification, collapsed output, sim guarantees.

The two load-bearing promises tested here are the ones the doctor
subsystem leans on: attaching a :class:`VirtualProfiler` never changes
simulated results (bit-identical), and the per-event cost of an enabled
profiler stays under the 5% overhead budget.
"""

import threading
import time

import pytest

from repro.codes import make_code
from repro.fs.cluster import StorageCluster
from repro.core.single_repair import run_single_repair
from repro.obs.profiler import (
    OTHER_BUCKET,
    StackProfile,
    VirtualProfiler,
    WallProfiler,
    classify_frame,
    classify_stack,
    frame_label,
    start_wall,
    stop_wall,
    wall_profiler,
)
from repro.sim.events import Simulation


class TestClassification:
    def test_classify_frame_by_package(self):
        assert classify_frame("/x/src/repro/codes/rs.py") == "gf_kernel"
        assert classify_frame("repro.core.coordinator") == "gf_kernel"
        assert classify_frame("/x/repro/live/wire.py") == "wire"
        assert classify_frame("/usr/lib/python3/asyncio/events.py") == "asyncio"
        assert classify_frame("numpy.core.multiarray") == "numpy"
        assert classify_frame("repro.sim.network") == "sim"
        assert classify_frame("/home/me/script.py") is None

    def test_classify_stack_leafmost_wins(self):
        # A GF kernel called from the wire path is a kernel cost, not wire.
        stack = ("repro/live/rpc:_serve", "repro/codes/rs:decode")
        assert classify_stack(stack) == "gf_kernel"
        assert classify_stack(("repro/live/rpc:_serve",)) == "wire"
        assert classify_stack(("mymod:main",)) == OTHER_BUCKET

    def test_frame_label_trims_to_package_root(self):
        label = frame_label("/opt/x/lib/repro/sim/disk.py", "read")
        assert label == "repro/sim/disk:read"
        # Unknown roots keep the last two path parts.
        assert frame_label("/a/b/c/d.py", "f") == "c/d:f"


class TestStackProfile:
    def test_collapsed_format(self):
        profile = StackProfile("virtual")
        profile.add(("a:f", "b:g"), 0.002)
        profile.add(("a:f",), 0.001)
        profile.add(("a:f", "b:g"), 0.001)
        text = profile.collapsed()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "a:f;b:g 3000" in lines  # µs counts, merged
        assert "a:f 1000" in lines
        assert profile.total_seconds == pytest.approx(0.004)
        assert len(profile) == 2

    def test_zero_and_negative_charges_dropped(self):
        profile = StackProfile()
        profile.add(("a:f",), 0.0)
        profile.add(("a:f",), -1.0)
        assert len(profile) == 0
        assert profile.collapsed() == ""

    def test_phase_breakdown_buckets(self):
        profile = StackProfile()
        profile.add(("repro/codes/rs:mul",), 1.0)
        profile.add(("repro/live/rpc:_serve",), 2.0)
        profile.add(("mymod:main",), 4.0)
        breakdown = profile.phase_breakdown()
        assert breakdown == {
            "gf_kernel": 1.0,
            "wire": 2.0,
            OTHER_BUCKET: 4.0,
        }

    def test_to_dict_and_write_collapsed(self, tmp_path):
        profile = StackProfile("virtual")
        profile.add(("repro/sim/disk:read",), 0.5)
        d = profile.to_dict()
        assert d["clock"] == "virtual"
        assert d["stacks"] == 1
        assert d["phase_breakdown"] == {"sim": 0.5}
        out = tmp_path / "prof.collapsed"
        profile.write_collapsed(str(out))
        assert out.read_text() == "repro/sim/disk:read 500000\n"


def _repair_fingerprint(profiler=None):
    """Run one deterministic sim repair; return its observable outcome."""
    cluster = StorageCluster.smallsite(seed=7)
    stripe = cluster.write_stripe(make_code("rs(4,2)"), "1MiB")
    if profiler is not None:
        profiler.attach(cluster.sim)
    result = run_single_repair(
        cluster, stripe, lost_index=0, strategy="ppr", num_slices=4
    )
    return (
        result.duration,
        result.verified,
        dict(result.phase_busy),
        cluster.sim.now,
        cluster.sim.events_executed,
    )


class TestVirtualProfiler:
    def test_profiled_run_is_bit_identical(self):
        baseline = _repair_fingerprint()
        profiler = VirtualProfiler()
        profiled = _repair_fingerprint(profiler)
        assert profiled == baseline
        assert profiler.events_observed == baseline[-1]

    def test_attribution_sums_to_virtual_elapsed(self):
        sim = Simulation()
        profiler = VirtualProfiler().attach(sim)

        def tick():
            pass

        sim.schedule(1.0, tick)
        sim.schedule(3.0, tick)
        sim.run()
        assert profiler.events_observed == 2
        assert sum(profiler.seconds.values()) == pytest.approx(3.0)
        profile = profiler.profile
        assert profile.clock_name == "virtual"
        assert profile.total_seconds == pytest.approx(3.0)
        (label,) = profiler.seconds
        assert label.endswith(":tick") or ":TestVirtualProfiler" in label

    def test_bound_methods_share_one_label(self):
        sim = Simulation()
        profiler = VirtualProfiler().attach(sim)

        class Actor:
            def on_event(self):
                pass

        a, b = Actor(), Actor()
        sim.schedule(1.0, a.on_event)
        sim.schedule(2.0, b.on_event)
        sim.run()
        assert len(profiler.seconds) == 1

    def test_zero_overhead_when_disabled(self):
        sim = Simulation()
        assert sim.profiler is None
        sim.schedule(1.0, lambda: None)
        sim.run()  # no profiler attribute errors on the disabled path
        assert sim.events_executed == 1

    def test_enabled_overhead_under_five_percent(self):
        """Acceptance bar: enabled-profiler sim runs within ~5% of plain.

        The profiler hook is a dict lookup and a float add per event, so
        with real event callbacks (GF math, heap ops) the measured ratio
        sits around 2-4%.  One repair scenario runs in single-digit
        milliseconds — far too short for a 5% one-shot wall-clock
        assertion under VM timer noise — so each sample times a batch of
        repairs, the two arms interleave (same thermal/steal-time
        environment), each arm keeps its floor, and the asserted budget
        is 10% to leave the true ~3% overhead headroom for jitter.
        Twenty rounds, not eight: since the GF kernel got faster a batch
        is ~15 ms, and late in a full suite run a floor of eight read
        over budget about once in 25 tries (0 in 50 with twenty).
        """
        def timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        def plain_batch():
            for _ in range(8):
                _repair_fingerprint()

        def profiled_batch():
            for _ in range(8):
                _repair_fingerprint(VirtualProfiler())

        _repair_fingerprint()  # warm caches (imports, GF tables)
        plain = profiled = float("inf")
        for _ in range(20):
            plain = min(plain, timed(plain_batch))
            profiled = min(profiled, timed(profiled_batch))
        assert profiled <= plain * 1.10, (
            f"profiled sim {profiled:.4f}s vs plain {plain:.4f}s "
            f"({profiled / plain - 1.0:+.1%} overhead, budget 10%)"
        )


class TestWallProfiler:
    def test_samples_busy_thread(self):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(200))

        worker = threading.Thread(target=spin, daemon=True)
        worker.start()
        profiler = WallProfiler(interval=0.002).start()
        try:
            time.sleep(0.15)
        finally:
            profile = profiler.stop()
            stop.set()
            worker.join(timeout=1.0)
        assert not profiler.running
        assert profiler.samples_taken > 0
        assert profile.total_seconds > 0.0
        assert any(
            any(label.endswith(":spin") for label in stack)
            for stack in profile.samples
        )

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            WallProfiler(interval=0.0)

    def test_module_singleton_lifecycle(self):
        assert wall_profiler() is None
        first = start_wall(interval=0.01)
        try:
            assert wall_profiler() is first
            assert start_wall() is first  # idempotent while running
        finally:
            profile = stop_wall()
        assert profile is first.profile
        assert wall_profiler() is None
        assert stop_wall() is None
