"""Telemetry of one task attempt, across the worker pipe or inline.

A task attempt records into fresh instruments (:func:`capture`): a
metrics registry, plus a span profiler, a trace recorder and a
watchdog (with the parent's config) when the parent had one installed
(:func:`installed_channels`).  The parent passes each final attempt's
export to :func:`fold`, in task input order, so its registry, profile,
trace and watchdog read like one serial run.  A worker's health events
reach the parent's trace and registry once, through the records and
metrics they were already written to; the parent's watchdog only takes
over their events and counts (:meth:`~repro.obs.health.Watchdog.absorb`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.obs.health import Watchdog, WatchdogConfig, current_watchdog, set_watchdog
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.profile import SpanProfiler, current_profiler, set_profiler
from repro.obs.recorder import TraceRecorder, current_recorder, set_recorder


Channels = Tuple[bool, bool, Optional[WatchdogConfig]]


def installed_channels() -> Channels:
    """``(spans, records, watchdog)``: whether a profiler / recorder is
    installed, and the installed watchdog's config (``None`` if none)."""
    wd = current_watchdog()
    return (
        current_profiler() is not None,
        current_recorder() is not None,
        None if wd is None else wd.config,
    )


@contextmanager
def capture(
    spans: bool, records: bool, watchdog: Optional[WatchdogConfig] = None
) -> Iterator[Callable[[], Dict[str, Any]]]:
    """Install fresh instruments for one attempt's block; yield their
    exporter, which snapshots them into a picklable dict.  Fresh,
    because the parent drops a retried attempt's export: nothing may
    carry over to the next attempt.  The caller's instruments are
    reinstalled when the block exits, however it exits."""
    registry = MetricsRegistry()
    profiler = SpanProfiler() if spans else None
    trace = TraceRecorder() if records else None
    wd = Watchdog(watchdog) if watchdog is not None else None
    saved = (set_registry(registry), set_profiler(profiler),
             set_recorder(trace), set_watchdog(wd))
    try:
        yield lambda: {
            "metrics": registry.snapshot(),
            "spans": profiler.to_chrome_trace() if profiler is not None else None,
            "records": trace,
            "health": (wd.events, wd.counts) if wd is not None else None,
        }
    finally:
        set_registry(saved[0])
        set_profiler(saved[1])
        set_recorder(saved[2])
        set_watchdog(saved[3])


def fold(exported: Optional[Dict[str, Any]]) -> None:
    """Merge one attempt's export into the installed instruments:
    registry snapshots are summed, spans keep the worker's pid, records
    are appended, health events and counts join the watchdog's.
    ``None`` (the attempt died before replying) is a no-op.
    """
    if not exported:
        return
    get_registry().merge_snapshot(exported["metrics"])
    prof, trace, wd = current_profiler(), current_recorder(), current_watchdog()
    if prof is not None and exported["spans"]:
        prof.absorb_chrome_trace(exported["spans"])
    if trace is not None and exported["records"] is not None:
        trace.absorb(exported["records"])
    if wd is not None and exported["health"] is not None:
        wd.absorb(*exported["health"])
