"""Run measurement: wall time + peak traced memory (Table 3 columns)."""

from __future__ import annotations

from typing import Callable, Tuple, TypeVar

from repro.obs.recorder import current_recorder
from repro.utils.timers import PeakMemory, Timer

T = TypeVar("T")


def measure_run(fn: Callable[[], T]) -> Tuple[T, float, int]:
    """Execute ``fn`` and return ``(result, wall_seconds, peak_bytes)``.

    Peak memory is tracked with ``tracemalloc`` (Python allocations,
    which dominate here: NumPy buffers including retained autodiff
    tapes).  Note that tracing slows execution somewhat; wall times are
    therefore measured on the *same* footing for every method, preserving
    the comparison the paper's Table 3 makes.

    With a trace recorder installed, the measurements are also merged
    into its metadata (``bench_wall_time_s``/``bench_peak_bytes``)
    so a trace artifact is self-describing without the table next to it.

    Child-worker memory: runs that fan out (``--jobs``) do their heavy
    allocation in worker processes ``tracemalloc`` cannot see, so the
    manager also watches the children's OS-level peak RSS and the
    reported peak is ``max(parent traced, child RSS)`` — Table 3 memory
    numbers stay truthful for parallel runs.
    """
    with PeakMemory(track_children=True) as mem:
        with Timer() as timer:
            result = fn()
    trace = current_recorder()
    if trace is not None:
        trace.set_meta(
            bench_wall_time_s=timer.elapsed,
            bench_peak_bytes=mem.total_peak_bytes,
            bench_child_peak_bytes=mem.child_peak_bytes,
        )
    return result, timer.elapsed, mem.total_peak_bytes
