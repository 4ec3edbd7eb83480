"""Run-health watchdog: NaN, stall, and Krylov blow-up detection."""

import math

import numpy as np
import pytest

from repro.obs.health import (
    Watchdog,
    WatchdogConfig,
    current_watchdog,
    set_watchdog,
    watching,
)
from repro.obs.metrics import use_registry


class TestNanCheck:
    def test_finite_telemetry_raises_nothing(self):
        wd = Watchdog()
        for i in range(100):
            assert wd.observe_iteration(i, 1.0 / (i + 1), 0.1) == []
        assert wd.healthy
        assert wd.counts == {}

    def test_nan_cost_is_an_error_event(self):
        wd = Watchdog()
        (ev,) = wd.observe_iteration(3, math.nan, 0.1)
        assert ev.check == "nan"
        assert ev.severity == "error"
        assert ev.iteration == 3
        assert math.isnan(ev.value)
        assert not wd.healthy

    def test_inf_grad_norm_detected_too(self):
        wd = Watchdog()
        (ev,) = wd.observe_iteration(0, 1.0, math.inf)
        assert ev.check == "nan"
        assert math.isinf(ev.value)

    def test_only_first_occurrence_emits_but_counts_keep_rising(self):
        wd = Watchdog()
        assert len(wd.observe_iteration(0, math.nan, 1.0)) == 1
        assert wd.observe_iteration(1, math.nan, 1.0) == []
        assert wd.observe_iteration(2, math.nan, 1.0) == []
        assert wd.counts["nan"] == 3
        assert len([e for e in wd.events if e.check == "nan"]) == 1

    def test_increments_registry_counter(self):
        with use_registry() as reg:
            Watchdog().observe_iteration(0, math.nan, 1.0)
            assert reg.counter("health.nan").value == 1


class TestStallCheck:
    def _stall(self, wd, start, n):
        events = []
        for i in range(start, start + n):
            events += wd.observe_iteration(i, 1.0, 0.1)  # flat cost
        return events

    def test_fires_after_the_window(self):
        wd = Watchdog(WatchdogConfig(stall_window=10))
        wd.observe_iteration(0, 1.0, 0.1)
        events = self._stall(wd, 1, 9)
        assert events == []  # 9 flat iterations: window not yet hit
        (ev,) = self._stall(wd, 10, 1)
        assert ev.check == "stall"
        assert ev.severity == "warning"
        assert ev.value == 10.0

    def test_fires_once_per_episode(self):
        wd = Watchdog(WatchdogConfig(stall_window=5))
        events = self._stall(wd, 0, 50)
        assert [e.check for e in events] == ["stall"]

    def test_rearms_after_real_improvement(self):
        wd = Watchdog(WatchdogConfig(stall_window=5))
        events = self._stall(wd, 0, 10)
        assert len(events) == 1
        # A genuine improvement (> stall_rtol relative) re-arms the check.
        assert wd.observe_iteration(10, 0.5, 0.1) == []
        for i in range(11, 15):
            assert wd.observe_iteration(i, 0.5, 0.1) == []
        (ev,) = wd.observe_iteration(16, 0.5, 0.1)
        assert ev.check == "stall"

    def test_sub_rtol_improvement_still_counts_as_stalled(self):
        wd = Watchdog(WatchdogConfig(stall_window=5, stall_rtol=1e-2))
        cost = 1.0
        events = []
        for i in range(20):
            cost *= 1.0 - 1e-4  # improving, but far below rtol
            events += wd.observe_iteration(i, cost, 0.1)
        assert [e.check for e in events] == ["stall"]


class TestKrylovCheck:
    def test_stable_iteration_counts_are_quiet(self):
        wd = Watchdog()
        for k in range(20):
            assert wd.observe_krylov(100, 10 + (k % 3)) == []

    def test_blowup_detected_against_rolling_median(self):
        wd = Watchdog(WatchdogConfig(krylov_min_history=5))
        for its in (10, 10, 11, 10, 12):
            assert wd.observe_krylov(100, its) == []
        (ev,) = wd.observe_krylov(100, 95)
        assert ev.check == "krylov_blowup"
        assert ev.severity == "warning"
        assert ev.value == 95.0

    def test_no_blowup_before_min_history(self):
        wd = Watchdog(WatchdogConfig(krylov_min_history=5))
        for its in (10, 10, 11):
            wd.observe_krylov(100, its)
        assert wd.observe_krylov(100, 500) == []  # history still arming

    def test_histories_keyed_by_system_size(self):
        wd = Watchdog(WatchdogConfig(krylov_min_history=3))
        for _ in range(5):
            wd.observe_krylov(100, 10)
        # A big fresh system with naturally higher counts must not be
        # judged against the small system's baseline.
        assert wd.observe_krylov(10000, 80) == []

    def test_failure_to_converge_is_an_error(self):
        wd = Watchdog()
        (ev,) = wd.observe_krylov(100, 500, converged=False)
        assert ev.check == "krylov_failure"
        assert ev.severity == "error"
        assert not wd.healthy


class TestEventCapAndCounts:
    def test_retained_events_capped_counts_not(self):
        wd = Watchdog(WatchdogConfig(max_events=3))
        for i in range(10):
            wd.observe_krylov(5, 100, converged=False)
        assert len(wd.events) == 3
        assert wd.counts["krylov_failure"] == 10


class TestInstallation:
    def test_disabled_by_default(self):
        assert current_watchdog() is None

    def test_watching_installs_and_restores(self):
        assert current_watchdog() is None
        with watching() as wd:
            assert current_watchdog() is wd
            with watching(Watchdog()) as inner:
                assert current_watchdog() is inner
            assert current_watchdog() is wd
        assert current_watchdog() is None

    def test_set_watchdog_returns_previous(self):
        wd = Watchdog()
        assert set_watchdog(wd) is None
        try:
            assert current_watchdog() is wd
        finally:
            assert set_watchdog(None) is wd
        assert current_watchdog() is None


class TestLoopIntegration:
    def _nan_oracle(self):
        class NaNOracle:
            calls = 0

            def value_and_grad(self, c):
                self.calls += 1
                if self.calls > 3:
                    return math.nan, np.full_like(c, math.nan)
                return float(np.sum(c * c)), 2.0 * c

            def initial_control(self):
                return np.ones(4)

        return NaNOracle()

    def test_optimize_reports_nan_through_the_watchdog(self):
        from repro.control.loop import optimize

        with use_registry() as reg, watching() as wd:
            optimize(self._nan_oracle(), n_iterations=10, initial_lr=1e-2)
        assert wd.counts["nan"] >= 1
        assert not wd.healthy
        assert reg.counter("health.nan").value >= 1

    def test_optimize_forwards_events_to_the_recorder(self):
        from repro.control.loop import optimize
        from repro.obs.recorder import recording

        with watching(), recording() as rec:
            optimize(self._nan_oracle(), n_iterations=10, initial_lr=1e-2)
        checks = [r.check for r in rec.healths]
        assert "nan" in checks
        assert rec.summary()["health"]["nan"] >= 1

    def test_healthy_run_emits_no_events(self):
        from repro.control.loop import optimize

        class Quad:
            def value_and_grad(self, c):
                return float(np.sum(c * c)), 2.0 * c

            def initial_control(self):
                return np.ones(4)

        with watching() as wd:
            optimize(Quad(), n_iterations=30, initial_lr=1e-1)
        assert wd.events == []
        assert wd.healthy

    def test_disabled_watchdog_leaves_optimize_untouched(self):
        from repro.control.loop import optimize

        assert current_watchdog() is None
        _, hist = optimize(self._nan_oracle(), n_iterations=10,
                           initial_lr=1e-2)
        # The loop's own divergence handling (stop at non-finite cost)
        # is unchanged when no watchdog is installed.
        assert math.isnan(hist.costs[-1])


class TestPerLoopState:
    def test_stall_state_restarts_with_the_loop(self):
        cfg = WatchdogConfig(stall_window=3, stall_rtol=0.5)
        wd = Watchdog(cfg)
        for loop in range(2):
            for i in range(5):
                wd.observe_iteration(i, 1.0, 0.1)  # flat cost
        assert [(ev.check, ev.iteration) for ev in wd.events] == [
            ("stall", 3), ("stall", 3)
        ]

    def test_nan_flag_restarts_with_the_loop(self):
        wd = Watchdog()
        for loop in range(2):
            wd.observe_iteration(0, 1.0, 0.1)
            wd.observe_iteration(1, math.nan, 0.1)
            wd.observe_iteration(2, math.nan, 0.1)
        assert [ev.iteration for ev in wd.events] == [1, 1]
        assert wd.counts["nan"] == 4

    def test_absorb_keeps_the_event_cap_and_adds_counts(self):
        src = Watchdog(WatchdogConfig(max_events=3))
        with use_registry() as reg:
            for i in range(3):
                src.observe_iteration(0, math.nan, 0.1)
            dst = Watchdog(WatchdogConfig(max_events=2))
            dst.absorb(src.events, src.counts)
            assert reg.counter("health.nan").value == 3  # not re-emitted
        assert len(dst.events) == 2
        assert dst.counts == {"nan": 3}


def _line_search_health(jobs):
    """A stalling Laplace PINN ω search under a watchdog and a recorder."""
    from repro.cloud.square import SquareCloud
    from repro.control import pinn
    from repro.obs.recorder import recording
    from repro.pde.laplace import LaplaceControlProblem

    lap = LaplaceControlProblem(SquareCloud(10))
    cfg = pinn.PINNTrainConfig(epochs=30, seed=0)
    net = pinn.LaplacePINN(lap, state_hidden=(8, 8), control_hidden=(8, 8),
                           config=cfg)
    wd = Watchdog(WatchdogConfig(stall_window=5, stall_rtol=0.5))
    with use_registry() as reg, recording() as rec, watching(wd):
        pinn.omega_line_search(net, (0.1, 1.0), cfg, cfg, jobs=jobs)
    return (
        dict(wd.counts),
        [(ev.check, ev.iteration, ev.value) for ev in wd.events],
        [(r.check, r.iteration, r.value) for r in rec.healths],
        reg.counter("health.stall").value,
    )


def test_serial_and_fanned_line_search_give_one_verdict():
    serial = _line_search_health(jobs=1)
    assert serial[0] == {"stall": 4}  # one episode per training loop
    assert _line_search_health(jobs=2) == serial
