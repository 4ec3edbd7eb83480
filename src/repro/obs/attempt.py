"""Telemetry of one task attempt across the worker pipe.

A worker attempt records into fresh instruments (:func:`capture`): a
metrics registry, plus a span profiler and a trace recorder when the
parent had one installed (:func:`installed_channels`).  The parent
passes each final attempt's export to :func:`fold`, in task input
order, so its registry, profile and trace read like one serial run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.profile import SpanProfiler, current_profiler, set_profiler
from repro.obs.recorder import TraceRecorder, current_recorder, set_recorder


def installed_channels() -> Tuple[bool, bool]:
    """``(spans, records)``: whether a profiler / recorder is installed."""
    return current_profiler() is not None, current_recorder() is not None


def capture(spans: bool, records: bool) -> Callable[[], Dict[str, Any]]:
    """Install fresh instruments for one attempt; return their exporter,
    which snapshots them into a picklable dict.  Fresh, because the
    parent drops a retried attempt's export: nothing may carry over to
    the next attempt in the same worker."""
    registry = MetricsRegistry()
    profiler = SpanProfiler() if spans else None
    trace = TraceRecorder() if records else None
    set_registry(registry)
    set_profiler(profiler)
    set_recorder(trace)
    return lambda: {
        "metrics": registry.snapshot(),
        "spans": profiler.to_chrome_trace() if profiler is not None else None,
        "records": trace,
    }


def fold(exported: Optional[Dict[str, Any]]) -> None:
    """Merge one attempt's export into the installed instruments:
    registry snapshots are summed, spans keep the worker's pid, records
    are appended.  ``None`` (the attempt died before replying) is a no-op.
    """
    if not exported:
        return
    get_registry().merge_snapshot(exported["metrics"])
    prof, trace = current_profiler(), current_recorder()
    if prof is not None and exported["spans"]:
        prof.absorb_chrome_trace(exported["spans"])
    if trace is not None and exported["records"] is not None:
        trace.absorb(exported["records"])
