"""Run-health watchdog: live detection of sick optimisation runs.

The convergence traces record *what happened*; the watchdog notices
*that something is going wrong while it still is*.  It is an in-process
monitor threaded through the DP/DAL/PINN loops and the Krylov solver
with three checks:

``nan``
    A non-finite cost or gradient norm entered the telemetry stream
    (the DAL-on-NS divergence failure mode).  Severity ``error``.
``stall``
    No relative cost improvement greater than ``stall_rtol`` over the
    last ``stall_window`` iterations.  Fires once per stall episode and
    re-arms on the next real improvement.  Severity ``warning``.
``krylov_blowup``
    One iterative solve needed more than ``krylov_blowup_factor`` times
    the rolling median iteration count of recent solves of the same
    system size — the preconditioner went stale or the operator's
    conditioning collapsed.  Severity ``warning``.  A non-converged
    solve additionally emits ``krylov_failure`` (severity ``error``).

Events are :class:`~repro.obs.schema.HealthRecord` instances (schema
v3).  The watchdog writes each event it keeps to the installed trace
recorder (:func:`~repro.obs.recorder.current_recorder`), so events land
in trace artifacts next to the records they explain, and every
occurrence increments a ``health.<check>`` counter in the active
metrics registry so ``--profile-dir`` snapshots pick them up for free.

It is installed like the profiler, registry and recorder
(:func:`watching` / :func:`set_watchdog`) and read once per loop with
:func:`current_watchdog`: one ``is not None`` test per iteration when
disabled.  The design budget for the total enabled-path observability
overhead is 2 %.

The ``nan`` and ``stall`` state is per loop: iteration 0 resets it, so
a verdict does not depend on which process ran the loop.  A task
attempt of :mod:`repro.parallel`, in a worker or inline, observes on a
fresh watchdog with the parent's config, and the parent absorbs its events and counts in task
order (:mod:`repro.obs.attempt`).  Krylov histories stay per watchdog.

Heartbeats — the parallel half of run health — live in
:mod:`repro.parallel`: workers send beat frames over their pipe while a
task runs, and the engine flags tasks whose beats stop before the hard
timeout fires (counter ``parallel.heartbeat_stalls``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs._install import Slot
from repro.obs.metrics import get_registry
from repro.obs.recorder import current_recorder
from repro.obs.schema import HealthRecord

__all__ = [
    "Watchdog",
    "WatchdogConfig",
    "current_watchdog",
    "set_watchdog",
    "watching",
]


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds for the health checks (defaults are deliberately lax:
    a watchdog that cries wolf gets turned off)."""

    #: Iterations without improvement before ``stall`` fires.
    stall_window: int = 50
    #: Minimum relative cost improvement that counts as progress.
    stall_rtol: float = 1e-3
    #: A solve needing more than this multiple of the rolling median
    #: iteration count (per system size) is a ``krylov_blowup``.
    krylov_blowup_factor: float = 3.0
    #: Solves observed (per system size) before blow-up detection arms.
    krylov_min_history: int = 5
    #: Rolling-median window length per system size.
    krylov_history: int = 32
    #: Cap on retained event records (counters keep counting past it).
    max_events: int = 100


class Watchdog:
    """Stateful per-run health monitor (one instance per monitored run).

    Not thread-safe: a watchdog watches one optimisation loop.  The
    ``observe_*`` hooks return the events they raised (possibly empty).
    Every raised event increments ``health.<check>`` in the active
    registry and the per-check :attr:`counts` tally; every kept event
    is also written to the installed trace recorder, if any.
    """

    def __init__(self, config: Optional[WatchdogConfig] = None) -> None:
        self.config = config or WatchdogConfig()
        self.events: List[HealthRecord] = []
        self.counts: Dict[str, int] = {}
        self._best = math.inf
        self._last_improve = 0
        self._stalled = False
        self._nan_seen = False
        self._krylov: Dict[int, Deque[int]] = {}
        self._n_solves = 0

    def __bool__(self) -> bool:
        return True

    @property
    def healthy(self) -> bool:
        """True while no ``error``-severity event has been raised."""
        return not any(ev.severity == "error" for ev in self.events)

    # -- emission ------------------------------------------------------
    def _emit(
        self, check: str, severity: str, iteration: int, value: float,
        message: str,
    ) -> List[HealthRecord]:
        self.counts[check] = self.counts.get(check, 0) + 1
        get_registry().counter(f"health.{check}").inc()
        if len(self.events) >= self.config.max_events:
            return []
        ev = HealthRecord(
            check=check, severity=severity, iteration=int(iteration),
            value=float(value), message=message,
        )
        self.events.append(ev)
        rec = current_recorder()
        if rec is not None:
            rec.health_event(check, ev.severity, ev.iteration, ev.value, message)
        return [ev]

    def absorb(self, events: List[HealthRecord], counts: Dict[str, int]) -> None:
        """Take over another watchdog's events and counts (a worker's).

        Nothing is re-emitted: the events already reached the trace and
        the registry that the worker folds into the parent's.
        """
        room = self.config.max_events - len(self.events)
        self.events.extend(events[:max(room, 0)])
        for check, n in counts.items():
            self.counts[check] = self.counts.get(check, 0) + n

    # -- checks --------------------------------------------------------
    def observe_iteration(
        self, iteration: int, cost: float, grad_norm: float
    ) -> List[HealthRecord]:
        """Feed one optimiser step; returns any events it raised.

        Iteration 0 starts a new loop: its stall and ``nan`` state is
        its own.
        """
        out: List[HealthRecord] = []
        if iteration == 0:
            self._best, self._last_improve = math.inf, 0
            self._stalled = self._nan_seen = False
        if not (math.isfinite(cost) and math.isfinite(grad_norm)):
            if not self._nan_seen:  # report the *first* occurrence only
                self._nan_seen = True
                bad = cost if not math.isfinite(cost) else grad_norm
                out += self._emit(
                    "nan", "error", iteration, bad,
                    f"non-finite telemetry at iteration {iteration}: "
                    f"cost={cost!r}, grad_norm={grad_norm!r}",
                )
            else:
                self.counts["nan"] = self.counts.get("nan", 0) + 1
            return out
        cfg = self.config
        threshold = cfg.stall_rtol * max(abs(self._best), 1e-300)
        if cost < self._best - threshold:
            self._best = cost
            self._last_improve = iteration
            self._stalled = False
        else:
            self._best = min(self._best, cost)
            window = iteration - self._last_improve
            if not self._stalled and window >= cfg.stall_window:
                self._stalled = True
                out += self._emit(
                    "stall", "warning", iteration, float(window),
                    f"no cost improvement > {cfg.stall_rtol:g} (relative) "
                    f"over the last {window} iterations "
                    f"(best J = {self._best:.6e})",
                )
        return out

    def observe_krylov(
        self, n: int, iterations: int, converged: bool = True
    ) -> List[HealthRecord]:
        """Feed one iterative solve (system size ``n``); returns events.

        The rolling iteration history is keyed by ``n`` so interleaved
        solvers of different sizes never pollute each other's baseline.
        """
        out: List[HealthRecord] = []
        self._n_solves += 1
        cfg = self.config
        hist = self._krylov.get(n)
        if hist is None:
            hist = self._krylov[n] = deque(maxlen=cfg.krylov_history)
        if len(hist) >= cfg.krylov_min_history:
            ordered = sorted(hist)
            mid = len(ordered) // 2
            median = (
                ordered[mid] if len(ordered) % 2
                else 0.5 * (ordered[mid - 1] + ordered[mid])
            )
            if iterations > cfg.krylov_blowup_factor * max(median, 1.0):
                out += self._emit(
                    "krylov_blowup", "warning", self._n_solves,
                    float(iterations),
                    f"solve #{self._n_solves} (n={n}) took {iterations} "
                    f"iterations vs rolling median {median:g}",
                )
        hist.append(int(iterations))
        if not converged:
            out += self._emit(
                "krylov_failure", "error", self._n_solves, float(iterations),
                f"solve #{self._n_solves} (n={n}) did not converge "
                f"within {iterations} iterations",
            )
        return out


# The process-wide active watchdog.  ``None`` (the default) keeps every
# instrumented loop on its no-op path — one hoisted read per run.
_WATCHDOG = Slot()


def current_watchdog() -> Optional[Watchdog]:
    """The installed watchdog, or ``None`` when monitoring is disabled."""
    return _WATCHDOG.current


def set_watchdog(watchdog: Optional[Watchdog]) -> Optional[Watchdog]:
    """Install ``watchdog`` process-wide; returns the previous one."""
    return _WATCHDOG.set(watchdog)


def watching(watchdog: Optional[Watchdog] = None):
    """``with watching() as wd:`` — install (a fresh) watchdog for a block."""
    return _WATCHDOG.scoped(watchdog if watchdog is not None else Watchdog())
