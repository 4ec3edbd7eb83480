"""The warm-pool task engine.

Each :meth:`ParallelEngine.run` forks a :class:`~repro.parallel.pool.
WarmPool` of ``min(jobs, len(tasks))`` workers that inherit the task
list, then schedules task attempts onto them from an asyncio loop: a
job is ``(index, attempt)``, and the round trip is the pool's
:meth:`~repro.parallel.pool.Worker.call`.  A raising task leaves its
worker in rotation; a crashed (even SIGKILLed) or timed-out attempt
kills its worker and replaces it, so a fault still fails nothing but
its own attempt.  The engine enforces per-task deadlines, retries
failures with exponential backoff, flags stalled heartbeats, and
returns structured :class:`~repro.parallel.task.TaskResult` records in
submission order.  With ``jobs=1`` the engine runs the same attempt
body (:func:`repro.parallel.worker._attempt`) in this process, one task
after another, with the same retries and the same result records; it
lacks only what a process boundary gives: isolation, deadlines and
heartbeats.

Determinism: every attempt of task ``key`` is seeded with
``derive_seed(root_seed, key)`` — results never depend on scheduling
order, worker count, which worker ran the attempt, or which attempt
finally succeeded.

Observability: each attempt runs with fresh telemetry — a metrics
registry, plus a span profiler and a trace recorder when the parent has
one installed — and returns it in its reply.  Once every task is
done, the engine folds each final attempt's telemetry into the parent's
in task input order (:func:`repro.obs.attempt.fold`) and drops a
retried attempt's, in both modes: spans keep the worker's real pid,
registry snapshots are summed, records are appended.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.attempt import Channels, fold, installed_channels
from repro.parallel.pool import WORKER_ENV, WarmPool, Worker
from repro.parallel.seeding import derive_seed
from repro.parallel.task import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    TaskResult,
    record_task_metrics,
)
from repro.parallel.worker import _attempt, task_worker_main

__all__ = ["ParallelEngine", "resolve_jobs", "run_tasks"]


def resolve_jobs(cli_value: Optional[int] = None, env_var: str = "REPRO_JOBS") -> int:
    """Resolve a worker count from CLI flag and environment.

    Precedence mirrors the artifact-dir helpers: an explicit CLI value
    wins, else ``$REPRO_JOBS``, else 1 (serial).  Inside an engine worker
    the environment resolves to 1 regardless, so nested fan-outs (a PINN
    line search inside a bench-matrix worker) do not oversubscribe —
    only an explicit ``cli_value`` can override that.
    """
    if cli_value is not None:
        return max(1, int(cli_value))
    if os.environ.get(WORKER_ENV):
        return 1
    raw = os.environ.get(env_var, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"${env_var} must be an integer, got {raw!r}") from None


_Done = Tuple[TaskResult, Optional[Dict[str, Any]]]


@dataclass
class _Beat:
    """One attempt's heartbeat state, as the parent sees it."""

    #: Loop time of the attempt's start or of its latest beat.
    last: float
    #: Set once when the beats go stale; sticky for the attempt.
    stalled: bool = False


class ParallelEngine:
    """Schedules tasks over a warm pool of worker processes.

    Parameters
    ----------
    jobs:
        Maximum concurrent workers.  ``None`` resolves via
        :func:`resolve_jobs`; ``jobs <= 1`` runs each attempt inline,
        through the workers' attempt body: same seeding, telemetry fold
        and result records, but no subprocess, so no isolation, no
        enforced ``timeout`` and no heartbeat.  Inline,
        ``KeyboardInterrupt`` and ``SystemExit`` propagate; a worker
        reports them as the task's error.
    timeout:
        Default per-attempt deadline in seconds (``None`` = unbounded).
        A task past its deadline is killed and reported ``timeout``.
    retries:
        Default extra attempts after a failed one (error/timeout/crash).
    backoff:
        Base of the exponential retry backoff: attempt ``k`` is delayed
        ``backoff * 2**(k-1)`` seconds.  The delay never blocks sibling
        tasks — the scheduler keeps the pool busy while one task waits.
    root_seed:
        Root of the per-task seed derivation.
    heartbeat:
        Interval (seconds) at which workers send a beat frame while a
        task runs; ``0`` disables heartbeats entirely.
    heartbeat_stall:
        Age (seconds) past which a worker's last beat counts as stale.
        ``None`` defaults to ``max(5 * heartbeat, 5.0)``.  A stale task
        is flagged once — stderr warning, ``parallel.heartbeat_stalls``
        counter, ``TaskResult.stalled`` — but only the hard ``timeout``
        kills it: the heartbeat is an early-warning channel, not a
        second executioner.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        root_seed: int = 0,
        heartbeat: float = 1.0,
        heartbeat_stall: Optional[float] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.root_seed = int(root_seed)
        self.heartbeat = max(0.0, float(heartbeat))
        if heartbeat_stall is None:
            heartbeat_stall = max(5.0 * self.heartbeat, 5.0)
        self.heartbeat_stall = float(heartbeat_stall)

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> List[TaskResult]:
        """Execute ``tasks``; return one result per task, in input order."""
        tasks = list(tasks)
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"task keys must be unique; duplicated: {dupes}")
        if not tasks:
            return []
        seeds = [derive_seed(self.root_seed, t.key) for t in tasks]
        channels = installed_channels()
        if self.jobs <= 1:
            done = [self._run_inline(t, s, channels) for t, s in zip(tasks, seeds)]
        else:
            done = self._run_pool(tasks, seeds, channels)
        for _, exported in done:  # input order, not completion order
            fold(exported)
        return [result for result, _ in done]

    def _final(self, task: Task, status: str, attempt: int) -> bool:
        """Whether an attempt is its task's last: it succeeded, or it
        used up the task's retries."""
        retries = self.retries if task.retries is None else task.retries
        return status == STATUS_OK or attempt > retries

    @staticmethod
    def _done(task: Task, seed: int, attempt: int, status: str,
              reply: Dict[str, Any], duration: float, stalled: bool = False) -> _Done:
        """A task's final attempt: its result record and its telemetry."""
        result = TaskResult(
            key=task.key,
            status=status,
            value=reply.get("value"),
            error=reply.get("error"),
            attempts=attempt,
            duration_s=duration,
            worker_pid=reply["pid"],
            seed=seed,
            stalled=stalled,
        )
        record_task_metrics(result)
        return result, reply.get("obs")

    # -- inline (jobs=1) -----------------------------------------------
    def _run_inline(self, task: Task, seed: int, channels: Channels) -> _Done:
        """Run one task's attempts in this process, synchronously: the
        worker's attempt body, without isolation, deadline or heartbeat.
        ``KeyboardInterrupt`` and ``SystemExit`` propagate."""
        attempt = 0
        while True:
            attempt += 1
            t0 = time.perf_counter()
            reply = _attempt(task, seed, channels, catch=Exception)
            duration = time.perf_counter() - t0
            status = STATUS_OK if reply["ok"] else STATUS_ERROR
            if self._final(task, status, attempt):
                return self._done(task, seed, attempt, status, reply, duration)
            time.sleep(self.backoff * (2 ** (attempt - 1)))

    # -- pool ----------------------------------------------------------
    def _run_pool(self, tasks: List[Task], seeds: List[int],
                  channels: Channels) -> List[_Done]:
        pool = WarmPool(min(self.jobs, len(tasks)), task_worker_main,
                        (tasks, seeds, channels, self.heartbeat))
        try:
            return asyncio.run(self._schedule(pool, tasks, seeds))
        finally:
            pool.shutdown()

    async def _schedule(self, pool: WarmPool, tasks: List[Task],
                        seeds: List[int]) -> List[_Done]:
        # Idle workers; tasks check them out first come first served,
        # and a retry rejoins the back of the line after its backoff.
        idle: "asyncio.Queue[Worker]" = asyncio.Queue()
        for worker in pool.workers:
            idle.put_nowait(worker)
        return list(await asyncio.gather(*(
            self._run_task(pool, idle, tasks[i], i, seeds[i])
            for i in range(len(tasks))
        )))

    async def _run_task(self, pool: WarmPool, idle: "asyncio.Queue[Worker]",
                        task: Task, index: int, seed: int) -> _Done:
        """Run one task's attempts until it succeeds or runs out."""
        loop = asyncio.get_running_loop()
        timeout = self.timeout if task.timeout is None else task.timeout
        attempt = 0
        while True:
            attempt += 1
            worker = await idle.get()
            pid = worker.process.pid
            t0 = loop.time()
            beat = _Beat(t0)
            watch = (loop.create_task(self._watch(beat, task.key, pid))
                     if self.heartbeat else None)
            reply = await worker.call(
                (index, attempt), timeout,
                on_beat=lambda: setattr(beat, "last", loop.time()),
            )
            duration = loop.time() - t0
            if watch is not None:
                watch.cancel()
            error = reply.get("error")
            if "pid" in reply:  # the task's own reply: value or exception
                idle.put_nowait(worker)
                status = STATUS_OK if reply["ok"] else STATUS_ERROR
            else:  # the round trip failed: the worker is dead or stuck
                idle.put_nowait(pool.replace(worker))
                if error["type"] == "RequestTimeout":
                    status = STATUS_TIMEOUT
                    error = {
                        "type": "TaskTimeout",
                        "message": (
                            f"task {task.key!r} exceeded its {timeout:.3g}s "
                            f"deadline and was killed"
                        ),
                        "traceback": "",
                    }
                else:
                    status = STATUS_CRASHED
                    error = {
                        "type": "WorkerCrashed",
                        "message": (
                            f"worker pid {pid} exited with code "
                            f"{worker.process.exitcode} before returning "
                            f"a result"
                        ),
                        "traceback": "",
                    }
                reply = {"pid": pid, "error": error}
            if self._final(task, status, attempt):
                return self._done(task, seed, attempt, status, reply, duration,
                                  beat.stalled)
            # A retried attempt's obs are dropped, never merged.
            await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))

    async def _watch(self, beat: _Beat, key: str, pid: int) -> None:
        """Flag (once) an attempt whose beats stopped — an early warning
        channel, never a kill.  Cancelled when the attempt ends."""
        loop = asyncio.get_running_loop()
        while True:
            age = loop.time() - beat.last
            if age >= self.heartbeat_stall:
                break
            await asyncio.sleep(self.heartbeat_stall - age)
        beat.stalled = True
        from repro.obs.metrics import get_registry

        get_registry().counter("parallel.heartbeat_stalls").inc()
        print(
            f"[repro.parallel] task {key!r} (pid {pid}) heartbeat stale "
            f"for {age:.1f}s — worker may be hung",
            file=sys.stderr,
        )


def run_tasks(
    tasks: Sequence[Task],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    root_seed: int = 0,
    heartbeat: float = 1.0,
    heartbeat_stall: Optional[float] = None,
) -> List[TaskResult]:
    """One-shot convenience: build a :class:`ParallelEngine` and run."""
    return ParallelEngine(
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        root_seed=root_seed,
        heartbeat=heartbeat,
        heartbeat_stall=heartbeat_stall,
    ).run(tasks)
