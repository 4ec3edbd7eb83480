"""Task and result records for the parallel engine.

A :class:`Task` is a unit of work with a stable ``key`` (the identity
that drives seeding); a :class:`TaskResult` is the structured outcome
record — status, attempts, duration, worker pid, exception payload —
that the engine returns in input order and feeds into the metrics
registry.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

#: Task finished and returned a value.
STATUS_OK = "ok"
#: Task raised; ``error`` carries the exception payload.
STATUS_ERROR = "error"
#: Task exceeded its deadline and its worker was killed.
STATUS_TIMEOUT = "timeout"
#: Worker died (segfault, SIGKILL, OOM) before reporting a result.
STATUS_CRASHED = "crashed"


class TaskError(RuntimeError):
    """Raised by :meth:`TaskResult.unwrap` when a task did not succeed."""


@dataclass
class Task:
    """One unit of work: a callable plus arguments.

    Workers inherit their tasks through ``fork`` where the platform has
    it, so neither needs to pickle; only the return value crosses the
    pipe.  ``key`` must be unique within a submission and stable across
    runs — it determines the task's derived seed.
    ``timeout``/``retries`` override the engine defaults when not None.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    timeout: Optional[float] = None
    retries: Optional[int] = None


@dataclass
class TaskResult:
    """Structured outcome of one task (after all retry attempts).

    ``status`` is one of :data:`STATUS_OK` / :data:`STATUS_ERROR` /
    :data:`STATUS_TIMEOUT` / :data:`STATUS_CRASHED`.  ``error`` is a
    plain-string payload ``{"type", "message", "traceback"}`` — built in
    the worker from the live exception, so it survives the pipe even
    when the exception object itself does not pickle.  ``duration_s``
    covers the final attempt only; ``attempts`` counts every attempt.
    ``stalled`` is the engine's heartbeat verdict: the worker's beats
    stopped while it ran (a hung-task early warning — the status still
    reflects how the attempt ultimately ended).
    """

    key: str
    status: str
    value: Any = None
    error: Optional[Dict[str, str]] = None
    attempts: int = 1
    duration_s: float = 0.0
    worker_pid: Optional[int] = None
    seed: Optional[int] = None
    stalled: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def unwrap(self) -> Any:
        """The task's value, or :class:`TaskError` describing the failure."""
        if self.ok:
            return self.value
        detail = ""
        if self.error:
            detail = f": {self.error.get('type', '')}: {self.error.get('message', '')}"
        raise TaskError(
            f"task {self.key!r} {self.status} after {self.attempts} attempt(s)"
            f"{detail}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the value itself is not serialised)."""
        return {
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "duration_s": self.duration_s,
            "worker_pid": self.worker_pid,
            "seed": self.seed,
            "stalled": self.stalled,
            "error": dict(self.error) if self.error else None,
        }


def exception_payload(exc: BaseException) -> Dict[str, str]:
    """Reduce a live exception to a picklable ``{type, message, traceback}``.

    Built at the raise site (worker side): only strings cross the pipe,
    so exotic exceptions — unpicklable attributes, broken ``__reduce__``
    — still produce a faithful report instead of poisoning the channel.
    """
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def record_task_metrics(result: TaskResult) -> None:
    """Feed one final :class:`TaskResult` into the active metrics registry.

    Counters ``parallel.tasks.<status>`` and ``parallel.attempts`` plus
    the ``parallel.task_seconds`` histogram — the same registry the rest
    of the instrumentation writes to, so ``--profile-dir`` artifacts pick
    the engine's behaviour up for free.
    """
    from repro.obs.metrics import TIME_BUCKETS, get_registry

    reg = get_registry()
    reg.counter(f"parallel.tasks.{result.status}").inc()
    reg.counter("parallel.attempts").inc(result.attempts)
    if result.attempts > 1:
        reg.counter("parallel.retries").inc(result.attempts - 1)
    reg.histogram("parallel.task_seconds", TIME_BUCKETS).observe(result.duration_s)
