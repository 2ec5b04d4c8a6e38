"""``repro.obs`` — zero-dependency tracing and metrics for sim and live.

One observability layer every subsystem reports into: nestable
:class:`~repro.obs.span.Span` objects with attributes, counters / gauges
/ histograms in a process-wide registry, a JSONL event sink, and
exporters to Chrome ``chrome://tracing`` / Perfetto JSON and a text
timeline.  See ``docs/OBSERVABILITY.md`` for naming conventions and the
event schema.

Tracing is **off by default** and instrumentation must cost nothing when
it is off.  Every instrumentation site follows the same pattern::

    from repro import obs

    t = obs.tracer()
    if t is not None:
        t.record_span("sim.disk.read", start, end, node=server_id)

i.e. a module-global read plus an ``is not None`` check on the hot path
— no allocation, no locking, no string formatting — which is what keeps
the ``galois.*`` perf rungs / ``bench_fig1_phase_breakdown`` flat with obs
disabled (an acceptance criterion for this layer).

Metrics are always-on (the registry is cheap and process-wide) but the
convention is the same: hot paths that would pay per-event cost guard on
``obs.tracer()`` so a disabled run skips them entirely.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Optional

from . import anomaly, causal, collector, doctor, flight, profiler, rollup
from .collector import TelemetryCollector, TelemetryShipper
from .export import chrome_trace, render_timeline, summarize
from .flight import FlightRecorder
from .metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_MAX_LABEL_SETS,
    OVERFLOW_COUNTER,
    OVERFLOW_LABELS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from .promexport import render_prometheus
from .sink import (
    SCHEMA_VERSION,
    JsonlSink,
    TeeSink,
    load_series,
    load_trace,
    write_trace,
)
from .rollup import RollupStore
from .span import Span, Tracer, clip
from .timeseries import DEFAULT_CAPACITY, Sampler, Series, TimeSeriesStore

__all__ = [
    "anomaly",
    "causal",
    "collector",
    "doctor",
    "flight",
    "profiler",
    "rollup",
    "TelemetryCollector",
    "TelemetryShipper",
    "RollupStore",
    "FlightRecorder",
    "TeeSink",
    "Span",
    "Tracer",
    "clip",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "OVERFLOW_COUNTER",
    "OVERFLOW_LABELS",
    "registry",
    "Series",
    "TimeSeriesStore",
    "Sampler",
    "DEFAULT_CAPACITY",
    "render_prometheus",
    "JsonlSink",
    "SCHEMA_VERSION",
    "write_trace",
    "load_trace",
    "load_series",
    "chrome_trace",
    "render_timeline",
    "summarize",
    "enable",
    "disable",
    "enabled",
    "tracer",
    "maybe_span",
    "recording",
]

#: The active tracer, or None when tracing is off.  Instrumentation
#: sites read this via :func:`tracer` and skip all work when it is None.
_tracer: "Optional[Tracer]" = None


def enable(
    clock: "Optional[Callable[[], float]]" = None,
    clock_name: str = "monotonic",
    sink: "Optional[JsonlSink]" = None,
    max_spans: int = 1_000_000,
) -> Tracer:
    """Turn tracing on process-wide and return the new tracer.

    ``clock_name`` should say what domain timestamps live in:
    ``"monotonic"`` (default), ``"wall"`` (live mode, epoch seconds with
    a monotonic guard), or ``"virtual"`` (simulator seconds-from-zero).
    """
    global _tracer
    if clock is None:
        clock = time.monotonic
    _tracer = Tracer(
        clock=clock, clock_name=clock_name, sink=sink, max_spans=max_spans
    )
    return _tracer


def disable() -> "Optional[Tracer]":
    """Turn tracing off; returns the tracer that was active (if any)."""
    global _tracer
    previous, _tracer = _tracer, None
    return previous


def enabled() -> bool:
    """True when a tracer is active."""
    return _tracer is not None


def tracer() -> "Optional[Tracer]":
    """The active tracer, or None — the hot-path guard."""
    return _tracer


def maybe_span(
    name: str, node: str = "", category: str = "", **attrs: Any
) -> "ContextManager[Optional[Span]]":
    """``tracer().span(...)`` when enabled, else a free no-op context.

    For call sites where a ``with`` block reads better than the explicit
    None-check; the disabled path is a shared :func:`nullcontext`.
    """
    t = _tracer
    if t is None:
        return nullcontext()
    return t.span(name, node=node, category=category, **attrs)


@contextmanager
def recording(
    clock: "Optional[Callable[[], float]]" = None,
    clock_name: str = "monotonic",
    sink: "Optional[JsonlSink]" = None,
):
    """Enable tracing for a block, always disabling on the way out.

    Yields the tracer; useful in tests and the CLI, where leaking the
    process-global tracer into subsequent work would cross-contaminate
    recordings.
    """
    t = enable(clock=clock, clock_name=clock_name, sink=sink)
    try:
        yield t
    finally:
        disable()
