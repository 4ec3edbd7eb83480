"""The engine's warm-worker target: run task attempts until shutdown.

Each worker inherits the engine's task list and derived seeds through
``fork``, so a job is just ``(index, attempt)`` and nothing about a task
is pickled.  An attempt (:func:`_attempt`) seeds the process, installs
fresh telemetry (:func:`repro.obs.attempt.capture`), calls the function,
and returns a picklable reply, which the worker ships back through the
pipe.  The engine's inline path (``jobs=1``) runs the same attempt in
its own process.  Everything defensive lives
here — a task may raise anything, return anything, or die outright,
and the parent must still get (at worst) an EOF it can classify.

Heartbeats: with a ``heartbeat`` interval, a daemon thread sends a
:data:`~repro.parallel.pool.BEAT` frame every interval while the task
runs.  The engine flags a task whose beats stop long before the hard
timeout kills it — a hung worker (deadlock, SIGSTOP, livelocked solve)
stops beating, while a merely slow one keeps beating.  Beats and the
reply share one send lock, and the beat thread stops before the reply
is sent, so no beat ever follows a reply.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, Optional, Sequence, Type

from repro.obs.attempt import Channels, capture
from repro.parallel.pool import BEAT, SHUTDOWN, WORKER_ENV
from repro.parallel.seeding import seed_everything
from repro.parallel.task import Task, exception_payload

__all__ = ["WORKER_ENV", "task_worker_main"]


def _beat(send: Callable[[Any], None], interval: float,
          stop: threading.Event) -> None:
    """Send a beat every ``interval`` seconds until ``stop`` is set.

    The loop freezes with the process (SIGSTOP, deadlocked GIL holder,
    hard livelock under a C extension never releasing the GIL) — exactly
    the conditions the parent wants an early signal for.
    """
    while not stop.wait(interval):
        try:
            send(BEAT)
        except OSError:
            return  # the parent is gone; the reply will fail the same way


def _attempt(task: Task, seed: int, channels: Channels, heartbeat: float = 0.0,
             send: Optional[Callable[[Any], None]] = None,
             catch: Type[BaseException] = BaseException) -> Dict[str, Any]:
    """Run one attempt; the reply carries its value or error and obs.

    ``catch`` is what the reply reports as the task's error: everything
    in a worker, where isolation is the point; ``Exception`` inline, so
    that Ctrl-C and ``SystemExit`` still stop the caller.
    """
    seed_everything(seed)
    with capture(*channels) as export:
        stop = threading.Event()
        beats = None
        if heartbeat:
            beats = threading.Thread(target=_beat,
                                     args=(send, heartbeat, stop),
                                     name="repro-heartbeat", daemon=True)
            beats.start()
        out: Dict[str, Any] = {"pid": os.getpid()}
        try:
            out["value"] = task.fn(*task.args, **task.kwargs)
            out["ok"] = True
        except catch as exc:
            out["ok"] = False
            out["error"] = exception_payload(exc)
        finally:
            if beats is not None:
                stop.set()
                beats.join()
        out["obs"] = export()
    return out


def task_worker_main(conn, tasks: Sequence[Task], seeds: Sequence[int],
                     channels: Channels, heartbeat: float) -> None:
    """Worker loop: one ``(index, attempt)`` job in, one reply out.

    The reply is always a plain dict of picklable values.  If the task's
    *return value* fails to pickle, a structured error reply is sent
    instead — the parent never hangs on a poisoned channel.
    """
    lock = threading.Lock()

    def send(msg: Any) -> None:
        with lock:
            conn.send(msg)

    while True:
        try:
            job = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if job is SHUTDOWN:
            break
        index, _ = job
        task = tasks[index]
        out = _attempt(task, seeds[index], channels, heartbeat, send)
        try:
            send(out)
        except OSError:
            break
        except Exception as exc:  # unpicklable return value
            send(dict(out, ok=False, value=None, error={
                "type": "UnpicklableResultError",
                "message": (
                    f"task {task.key!r} returned a value that could not "
                    f"be pickled back to the parent: {exc}"
                ),
                "traceback": "",
            }))
    conn.close()
