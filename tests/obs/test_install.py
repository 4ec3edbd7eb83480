"""Install semantics shared by the four process-wide telemetry channels.

The profiler, the watchdog, the metrics registry and the trace recorder
are installed the same way: a scoped install nests and restores its
predecessor, and a stale exit never clobbers a newer install.
"""

import pytest

from repro.obs.health import Watchdog, current_watchdog, set_watchdog, watching
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry, use_registry
from repro.obs.profile import SpanProfiler, current_profiler, profiling, set_profiler
from repro.obs.recorder import TraceRecorder, current_recorder, recording, set_recorder

CHANNELS = {
    "profiling": (profiling, current_profiler, set_profiler, SpanProfiler),
    "watching": (watching, current_watchdog, set_watchdog, Watchdog),
    "use_registry": (use_registry, get_registry, set_registry, MetricsRegistry),
    "recording": (recording, current_recorder, set_recorder, TraceRecorder),
}


@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_scoped_install_nests_restores_and_survives_stale_exit(channel):
    scoped, current, install, make = CHANNELS[channel]
    base = current()
    try:
        # Nesting: each block installs its value and restores its own
        # predecessor on exit.
        with scoped() as outer:
            assert current() is outer
            given = make()
            with scoped(given) as inner:
                assert inner is given
                assert current() is inner
            assert current() is outer
        assert current() is base

        # Stale exit: a newer install made while the block ran survives
        # the block's exit.
        cm = scoped()
        cm.__enter__()
        newer = make()
        install(newer)
        cm.__exit__(None, None, None)
        assert current() is newer
    finally:
        install(base)
    assert current() is base
