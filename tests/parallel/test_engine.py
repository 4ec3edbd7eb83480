"""Fault-injection and determinism tests for the parallel task engine.

Worker helpers live at module level so they survive any multiprocessing
start method.  Fault tests keep payloads tiny (the point is the engine's
classification, not the work), and every test runs with a short timeout
so a scheduler bug fails fast instead of hanging the suite.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.obs.profile import SpanProfiler, profiling, span
from repro.obs.recorder import TraceRecorder, current_recorder, recording
from repro.parallel import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ParallelEngine,
    Task,
    TaskError,
    derive_seed,
    resolve_jobs,
    run_tasks,
)
from repro.parallel.worker import WORKER_ENV


# ----------------------------------------------------------------------
# Worker payloads
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _draw(n):
    """Expose the process-global RNG the engine seeds per task."""
    return np.random.random(n).tolist()


def _boom():
    raise ValueError("intentional failure")


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_forever():
    time.sleep(300)


def _freeze_self():
    """Stop the whole process — even the heartbeat thread goes silent.

    ``time.sleep`` would keep the daemon heartbeat thread alive (that is
    the point of a thread-based heartbeat: a busy-but-healthy worker
    still beats), so a genuine stall needs SIGSTOP.
    """
    os.kill(os.getpid(), signal.SIGSTOP)


def _return_unpicklable():
    return lambda: None


class _VenomousError(Exception):
    """Raises on pickle — the payload must still cross the pipe."""

    def __reduce__(self):
        raise TypeError("this exception refuses to pickle")


def _raise_unpicklable():
    raise _VenomousError("poison")


def _fail_until_marker(marker_path):
    """Fail on the first attempt, succeed once the marker exists."""
    if os.path.exists(marker_path):
        return "recovered"
    with open(marker_path, "w", encoding="utf-8") as f:
        f.write("1")
    raise RuntimeError("first attempt fails")


def _counted_work(marker_path=None):
    """Bump ``task.work`` inside a ``task.body`` span; with a marker path,
    fail the first attempt after both are recorded."""
    get_registry().counter("task.work").inc()
    with span("task.body"):
        if marker_path is not None and not os.path.exists(marker_path):
            with open(marker_path, "w", encoding="utf-8") as f:
                f.write("1")
            raise RuntimeError("first attempt fails")
    return os.getpid()


def _traced_work(marker_path):
    """Bump ``task.work`` and record one iteration, then fail the first
    attempt (the marker does not exist yet) and succeed the next."""
    get_registry().counter("task.work").inc()
    current_recorder().iteration(0, 1.0, 0.0, 0.0)
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as f:
            f.write("1")
        raise RuntimeError("first attempt fails")
    return os.getpid()


def _interrupt():
    raise KeyboardInterrupt


def _outer_inner_spans():
    """An ``outer`` span whose time is split around an ``inner`` one."""
    with span("outer"):
        time.sleep(0.01)
        with span("inner"):
            time.sleep(0.01)
    return os.getpid()


def _report_worker_env():
    return {"flag": os.environ.get(WORKER_ENV), "jobs": resolve_jobs(None)}


# ----------------------------------------------------------------------
# resolve_jobs
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv(WORKER_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_cli_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_used_without_cli(self, monkeypatch):
        monkeypatch.delenv(WORKER_ENV, raising=False)
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_worker_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv(WORKER_ENV, "1")
        assert resolve_jobs(None) == 1

    def test_explicit_cli_overrides_worker_env(self, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        assert resolve_jobs(2) == 2

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.delenv(WORKER_ENV, raising=False)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


# ----------------------------------------------------------------------
# Happy path + structure
# ----------------------------------------------------------------------
class TestRun:
    def test_results_in_input_order(self):
        tasks = [Task(key=f"t{i}", fn=_square, args=(i,)) for i in range(6)]
        results = run_tasks(tasks, jobs=3, timeout=60)
        assert [r.key for r in results] == [t.key for t in tasks]
        assert [r.value for r in results] == [i * i for i in range(6)]
        assert all(r.status == STATUS_OK for r in results)

    def test_result_record_fields(self):
        (r,) = run_tasks([Task(key="t", fn=_square, args=(3,))], jobs=2, timeout=60)
        assert r.ok and r.unwrap() == 9
        assert r.attempts == 1
        assert r.duration_s >= 0.0
        assert r.worker_pid is not None and r.worker_pid != os.getpid()
        assert r.seed == derive_seed(0, "t")
        d = r.to_dict()
        assert d["status"] == STATUS_OK and d["error"] is None

    def test_inline_when_jobs_one(self):
        (r,) = run_tasks([Task(key="t", fn=_square, args=(4,))], jobs=1)
        assert r.unwrap() == 16
        assert r.worker_pid == os.getpid()

    def test_empty_task_list(self):
        assert ParallelEngine(jobs=2).run([]) == []

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ParallelEngine(jobs=2).run(
                [Task(key="t", fn=_square, args=(1,)),
                 Task(key="t", fn=_square, args=(2,))]
            )

    def test_workers_are_reused_across_tasks(self):
        results = run_tasks(
            [Task(key=f"p{i}", fn=os.getpid) for i in range(6)],
            jobs=2, timeout=60,
        )
        pids = {r.unwrap() for r in results}
        assert pids == {r.worker_pid for r in results}
        assert len(pids) <= 2 and os.getpid() not in pids

        tasks = [Task(key=f"ok{i}", fn=_square, args=(i,)) for i in range(4)]
        tasks.insert(2, Task(key="dead", fn=_sigkill_self))
        results = run_tasks(tasks, jobs=2, timeout=60)
        assert [r.status for r in results] == [
            STATUS_OK, STATUS_OK, STATUS_CRASHED, STATUS_OK, STATUS_OK,
        ]
        assert [r.value for r in results if r.ok] == [0, 1, 4, 9]

    def test_worker_env_flag_set_and_nested_fanout_serial(self):
        (r,) = run_tasks([Task(key="t", fn=_report_worker_env)], jobs=2, timeout=60)
        assert r.unwrap() == {"flag": "1", "jobs": 1}


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_results_for_any_worker_count(self):
        tasks = [Task(key=f"d{i}", fn=_draw, args=(4,)) for i in range(5)]
        serial = run_tasks(tasks, jobs=1)
        pooled2 = run_tasks(tasks, jobs=2, timeout=60)
        pooled4 = run_tasks(tasks, jobs=4, timeout=60)
        for a, b, c in zip(serial, pooled2, pooled4):
            assert a.value == b.value == c.value
            assert a.seed == b.seed == c.seed

    def test_results_independent_of_submission_order(self):
        tasks = [Task(key=f"d{i}", fn=_draw, args=(4,)) for i in range(5)]
        fwd = {r.key: r.value for r in run_tasks(tasks, jobs=2, timeout=60)}
        rev = {r.key: r.value for r in run_tasks(tasks[::-1], jobs=2, timeout=60)}
        assert fwd == rev

    def test_retry_attempt_reseeded_identically(self, tmp_path):
        marker = str(tmp_path / "marker")
        (r,) = run_tasks(
            [Task(key="d", fn=_fail_until_marker, args=(marker,), retries=2)],
            jobs=2, timeout=60, backoff=0.01,
        )
        assert r.unwrap() == "recovered"
        # Seed identity: the successful retry used the same derived seed.
        assert r.seed == derive_seed(0, "d")


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultIsolation:
    def test_raising_worker_reports_error(self):
        tasks = [
            Task(key="ok", fn=_square, args=(2,)),
            Task(key="bad", fn=_boom),
        ]
        ok, bad = run_tasks(tasks, jobs=2, timeout=60)
        assert ok.unwrap() == 4
        assert bad.status == STATUS_ERROR
        assert bad.error["type"] == "ValueError"
        assert "intentional failure" in bad.error["message"]
        assert "ValueError" in bad.error["traceback"]
        with pytest.raises(TaskError, match="bad"):
            bad.unwrap()

    def test_sigkilled_worker_fails_only_its_task(self):
        tasks = [
            Task(key="ok1", fn=_square, args=(2,)),
            Task(key="dead", fn=_sigkill_self),
            Task(key="ok2", fn=_square, args=(3,)),
        ]
        ok1, dead, ok2 = run_tasks(tasks, jobs=3, timeout=60)
        assert ok1.unwrap() == 4 and ok2.unwrap() == 9
        assert dead.status == STATUS_CRASHED
        assert dead.error["type"] == "WorkerCrashed"
        assert "exited with code" in dead.error["message"]

    def test_hung_worker_times_out_and_is_killed(self):
        t0 = time.monotonic()
        tasks = [
            Task(key="hang", fn=_hang_forever, timeout=0.5),
            Task(key="ok", fn=_square, args=(5,)),
        ]
        hang, ok = run_tasks(tasks, jobs=2, timeout=60)
        assert ok.unwrap() == 25
        assert hang.status == STATUS_TIMEOUT
        assert hang.error["type"] == "TaskTimeout"
        assert time.monotonic() - t0 < 30  # killed, not awaited

    def test_unpicklable_return_value(self):
        (r,) = run_tasks([Task(key="t", fn=_return_unpicklable)], jobs=2,
                         timeout=60)
        assert r.status == STATUS_ERROR
        assert r.error["type"] == "UnpicklableResultError"

    def test_unpicklable_exception_payload(self):
        (r,) = run_tasks([Task(key="t", fn=_raise_unpicklable)], jobs=2,
                         timeout=60)
        assert r.status == STATUS_ERROR
        assert r.error["type"] == "_VenomousError"
        assert "poison" in r.error["message"]

    def test_retry_then_succeed(self, tmp_path):
        marker = str(tmp_path / "marker")
        (r,) = run_tasks(
            [Task(key="flaky", fn=_fail_until_marker, args=(marker,))],
            jobs=2, timeout=60, retries=3, backoff=0.01,
        )
        assert r.unwrap() == "recovered"
        assert r.attempts == 2

    def test_retries_exhausted_reports_last_failure(self):
        (r,) = run_tasks([Task(key="bad", fn=_boom)], jobs=2, timeout=60,
                         retries=2, backoff=0.01)
        assert r.status == STATUS_ERROR
        assert r.attempts == 3

    def test_inline_keyboard_interrupt_propagates(self):
        """Ctrl-C stops a ``jobs=1`` run; a worker reports it as the
        task's error instead."""
        with pytest.raises(KeyboardInterrupt):
            run_tasks([Task(key="ctrl-c", fn=_interrupt)], jobs=1)
        (r,) = run_tasks([Task(key="ctrl-c", fn=_interrupt)], jobs=2,
                         timeout=60)
        assert r.status == STATUS_ERROR
        assert r.error["type"] == "KeyboardInterrupt"

    def test_inline_retry_then_succeed(self, tmp_path):
        marker = str(tmp_path / "marker")
        (r,) = run_tasks(
            [Task(key="flaky", fn=_fail_until_marker, args=(marker,))],
            jobs=1, retries=3, backoff=0.01,
        )
        assert r.unwrap() == "recovered"
        assert r.attempts == 2


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_healthy_tasks_are_not_flagged(self):
        results = run_tasks(
            [Task(key=f"t{i}", fn=_square, args=(i,)) for i in range(3)],
            jobs=2, timeout=60, heartbeat=0.05,
        )
        assert all(r.status == STATUS_OK for r in results)
        assert all(r.stalled is False for r in results)
        assert all(r.to_dict()["stalled"] is False for r in results)

    def test_busy_sleeper_keeps_beating(self):
        # A slow-but-alive worker must NOT be flagged: the heartbeat
        # thread beats independently of the (sleeping) main thread.
        (r,) = run_tasks(
            [Task(key="slow", fn=time.sleep, args=(1.2,))],
            jobs=2, timeout=60, heartbeat=0.05, heartbeat_stall=0.4,
        )
        assert r.status == STATUS_OK
        assert r.stalled is False

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP (POSIX)")
    def test_frozen_worker_flagged_before_hard_timeout(self, capfd):
        with use_registry(MetricsRegistry()) as reg:
            (r,) = run_tasks(
                [Task(key="frozen", fn=_freeze_self, timeout=3.0)],
                jobs=2, timeout=60, heartbeat=0.1, heartbeat_stall=0.5,
            )
            stalls = reg.counter("parallel.heartbeat_stalls").value
        # The heartbeat is an early-warning flag, never the executioner:
        # the hard timeout still decides the task's fate.
        assert r.status == STATUS_TIMEOUT
        assert r.stalled is True
        assert stalls == 1
        err = capfd.readouterr().err
        assert "heartbeat stale" in err
        assert "frozen" in err

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP (POSIX)")
    def test_stall_flagged_once_per_attempt(self, capfd):
        (r,) = run_tasks(
            [Task(key="frozen", fn=_freeze_self, timeout=2.0)],
            jobs=2, timeout=60, heartbeat=0.1, heartbeat_stall=0.3,
        )
        assert r.stalled is True
        # ~1.7 s between flagging and the kill, polled every few ms —
        # a re-flagging bug would print dozens of warnings.
        assert capfd.readouterr().err.count("heartbeat stale") == 1

    def test_heartbeat_disabled_with_zero_interval(self):
        (r,) = run_tasks(
            [Task(key="t", fn=_square, args=(2,))],
            jobs=2, timeout=60, heartbeat=0.0,
        )
        assert r.unwrap() == 4
        assert r.stalled is False


# ----------------------------------------------------------------------
# Metrics integration
# ----------------------------------------------------------------------
class TestMetrics:
    def test_task_outcomes_recorded(self):
        with use_registry(MetricsRegistry()) as reg:
            run_tasks(
                [
                    Task(key="ok", fn=_square, args=(1,)),
                    Task(key="bad", fn=_boom),
                ],
                jobs=2, timeout=60,
            )
            snap = reg.snapshot()
        assert snap["parallel.tasks.ok"]["value"] == 1
        assert snap["parallel.tasks.error"]["value"] == 1
        assert snap["parallel.attempts"]["value"] == 2
        assert snap["parallel.task_seconds"]["count"] == 2

    def test_retries_counted(self, tmp_path):
        marker = str(tmp_path / "marker")
        with use_registry(MetricsRegistry()) as reg:
            run_tasks(
                [Task(key="flaky", fn=_fail_until_marker, args=(marker,))],
                jobs=2, timeout=60, retries=2, backoff=0.01,
            )
            snap = reg.snapshot()
        assert snap["parallel.retries"]["value"] == 1
        assert snap["parallel.attempts"]["value"] == 2

    def test_absorbed_spans_keep_self_time(self):
        with profiling(SpanProfiler()) as prof:
            results = run_tasks(
                [Task(key=f"t{i}", fn=_outer_inner_spans) for i in range(2)],
                jobs=2, timeout=60,
            )
        assert all(r.ok for r in results)
        rows = {r["name"]: r for r in prof.summary_rows()}
        outer, inner = rows["outer"], rows["inner"]
        assert outer["calls"] == inner["calls"] == 2
        assert inner["self_seconds"] == pytest.approx(inner["seconds"],
                                                      abs=1e-6)
        assert outer["self_seconds"] == pytest.approx(
            outer["seconds"] - inner["seconds"], abs=1e-6)
        assert outer["self_seconds"] >= 0.015  # two 10 ms sleeps, at least

    def test_worker_obs_merged_once(self, tmp_path):
        marker = str(tmp_path / "marker")
        with use_registry(MetricsRegistry()) as reg, \
                profiling(SpanProfiler()) as prof:
            results = run_tasks(
                [
                    Task(key="once", fn=_counted_work),
                    Task(key="retried", fn=_counted_work, args=(marker,),
                         retries=1),
                ],
                jobs=2, timeout=60, backoff=0.01,
            )
            work = reg.counter("task.work").value
        assert [r.status for r in results] == [STATUS_OK, STATUS_OK]
        assert results[1].attempts == 2
        # The failed first attempt's counter bump and span are dropped.
        assert work == 2
        body_pids = sorted(
            e["pid"] for e in prof.external_events()
            if e.get("name") == "task.body"
        )
        assert body_pids == sorted(r.worker_pid for r in results)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_attempt_obs_dropped(self, tmp_path, jobs):
        """Both modes keep only the final attempt's counter bumps and
        trace records: two tasks that each retry once leave two of each."""
        tasks = [Task(key=f"t{i}", fn=_traced_work,
                      args=(str(tmp_path / f"marker{i}"),))
                 for i in range(2)]
        with use_registry(MetricsRegistry()) as reg, \
                recording(TraceRecorder()) as rec:
            results = run_tasks(tasks, jobs=jobs, timeout=60, retries=1,
                                backoff=0.01)
            work = reg.counter("task.work").value
        assert [r.attempts for r in results] == [2, 2]
        assert all(r.ok for r in results)
        assert work == 2
        assert len(rec.iterations) == 2
