"""Observability: convergence traces, span profiling, metrics.

Public surface:

- :class:`~repro.obs.recorder.TraceRecorder` / :func:`recording` —
  collect typed per-iteration records from whatever runs while it is
  installed; JSONL round-trip.  :data:`NULL_RECORDER` is its no-op twin.
- :class:`~repro.obs.profile.SpanProfiler` / :func:`span` /
  :func:`profiling` — hierarchical wall-time spans, Chrome-trace and
  HTML export; module-level :func:`span` is a shared no-op while no
  profiler is installed.  :func:`write_profile_artifacts` writes a
  profile's ``.trace.json`` + ``.metrics.json`` pair.
- :class:`~repro.obs.metrics.MetricsRegistry` / :func:`get_registry` —
  process-wide counters, gauges and histograms (the cache counters of
  the autodiff layer live here).
- The recorder, profiler, registry and watchdog install the same way
  (:mod:`repro.obs._install`: nesting scoped installs, lock-free
  reads); :mod:`repro.obs.attempt` scopes fresh ones around each task
  attempt of :mod:`repro.parallel`, carries them across the worker
  pipe, and folds them into the parent's
  (the one way any fan-out, the bench matrix included, combines
  worker telemetry).
- :class:`~repro.obs.compare.TolerancePolicy` / :func:`diff_traces` —
  golden-trace comparison with per-field tolerances.
- :mod:`repro.obs.goldens` — tier-0 configs that produce the committed
  baseline traces (imported lazily; it pulls in the control stack).
- :mod:`repro.obs.report` — standalone HTML rendering of profile
  artifacts (imported lazily by ``SpanProfiler.save_html``).
- :class:`~repro.obs.health.Watchdog` / :func:`watching` — in-process
  run-health monitoring (NaN/Inf, stalled convergence, Krylov iteration
  blow-ups) emitting typed :class:`HealthRecord` events.
- :func:`~repro.obs.fingerprint.environment_fingerprint` /
  :func:`~repro.obs.fingerprint.config_digest` — shared provenance for
  trace headers, profile artifacts and served request digests.
- ``python -m repro.obs`` — summary / diff / record / report CLI.
"""

from repro.obs.compare import Deviation, TolerancePolicy, diff_traces, format_diff
from repro.obs.fingerprint import config_digest, environment_fingerprint
from repro.obs.health import (
    Watchdog,
    WatchdogConfig,
    current_watchdog,
    set_watchdog,
    watching,
)
from repro.obs.hooks import (
    record_compile_cache,
    record_oracle_telemetry,
    record_solver_cache,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    ProfileError,
    Span,
    SpanProfiler,
    current_profiler,
    metrics_payload,
    profiled,
    profiling,
    set_profiler,
    span,
    write_profile_artifacts,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    current_recorder,
    recording,
    set_recorder,
)
from repro.obs.schema import (
    SCHEMA_VERSION,
    CacheRecord,
    HealthRecord,
    IterationRecord,
    SolverRecord,
)

__all__ = [
    "SCHEMA_VERSION",
    "CacheRecord",
    "Counter",
    "Deviation",
    "Gauge",
    "HealthRecord",
    "Histogram",
    "IterationRecord",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_RECORDER",
    "NullProfiler",
    "NullRecorder",
    "ProfileError",
    "SolverRecord",
    "Span",
    "SpanProfiler",
    "TolerancePolicy",
    "TraceRecorder",
    "Watchdog",
    "WatchdogConfig",
    "config_digest",
    "current_profiler",
    "current_recorder",
    "current_watchdog",
    "diff_traces",
    "environment_fingerprint",
    "format_diff",
    "get_registry",
    "metrics_payload",
    "profiled",
    "profiling",
    "record_compile_cache",
    "record_oracle_telemetry",
    "record_solver_cache",
    "recording",
    "set_profiler",
    "set_recorder",
    "set_registry",
    "set_watchdog",
    "span",
    "use_registry",
    "watching",
    "write_profile_artifacts",
]
