"""Warm worker processes: spawn, round-trip, detect crashes, replace.

A :class:`Worker` is one long-lived process plus the parent end of its
duplex pipe.  The process runs ``target(conn, *args)``: a loop that
receives one job, sends back exactly one reply, and returns when it
receives :data:`SHUTDOWN`.  The task engine (:mod:`repro.parallel.engine`)
and the control service (:mod:`repro.serve.service`) both run their
workers this way; only the target differs.

:meth:`Worker.call` is a coroutine that runs the round trip on the
event loop: it sends the job, awaits the pipe's readability through
``loop.add_reader`` under the deadline, and reads the reply — no thread
hop on either side.  A target may send :data:`BEAT` frames before its
reply; ``call`` hands each to ``on_beat`` and keeps waiting.  ``call``
**never raises**: a dead pipe comes back as a ``{"type":
"WorkerCrashed"}`` error payload and an expired deadline as ``{"type":
"RequestTimeout"}``.  The distinction matters to the caller: after a
timeout the worker is *still busy* with the stale job, so it must be
killed and replaced, not returned to rotation; after a crash the
process is already gone and only needs replacing.

One job at a time per worker is the caller's contract: a caller checks
an idle worker out before calling it, so a job always reaches a worker
that is blocked in ``recv`` and the send never waits for compute.

:class:`WarmPool` owns the worker set.  It is deliberately free of any
scheduling policy — checkout order lives in the caller's
``asyncio.Queue`` — and its lifecycle calls (spawn, replace, shutdown)
stay blocking.  Workers start with ``fork`` where the platform has it,
so a target's arguments (the engine's task list, say) are inherited,
not pickled.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["BEAT", "SHUTDOWN", "WORKER_ENV", "WarmPool", "Worker"]

#: Set in every worker process; ``resolve_jobs`` reads it to keep nested
#: fan-outs (a PINN line search inside a bench-matrix worker) serial.
WORKER_ENV = "REPRO_PARALLEL_WORKER"

#: The job that ends a worker target's loop.
SHUTDOWN = None

#: A heartbeat frame a target may send while it works on a job.
BEAT = "beat"

_CTX = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)


def _bootstrap(target: Callable[..., None], conn, args: Sequence[Any]) -> None:
    os.environ[WORKER_ENV] = "1"
    target(conn, *args)


class Worker:
    """One warm worker process plus the parent end of its pipe."""

    def __init__(self, worker_id: int, target: Callable[..., None],
                 args: Sequence[Any] = ()) -> None:
        self.worker_id = int(worker_id)
        parent, child = _CTX.Pipe(duplex=True)
        self.conn = parent
        self.process = _CTX.Process(
            target=_bootstrap,
            args=(target, child, tuple(args)),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child.close()

    async def call(self, job: Any, timeout: Optional[float] = None,
                   on_beat: Optional[Callable[[], None]] = None) -> Any:
        """Send one job, await its reply on the running loop; returns
        typed errors, never raises (cancellation propagates)."""
        try:
            self.conn.send(job)
            fd = self.conn.fileno()
        except OSError:
            return self._crashed()
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        readable = loop.create_future()

        def on_readable() -> None:
            if not readable.done():
                readable.set_result(None)

        loop.add_reader(fd, on_readable)
        try:
            while True:
                try:
                    await asyncio.wait_for(
                        readable,
                        None if deadline is None else deadline - loop.time(),
                    )
                except asyncio.TimeoutError:
                    return {"ok": False, "error": {
                        "type": "RequestTimeout",
                        "message": f"worker {self.worker_id} exceeded "
                                   f"{timeout:g}s; killing it",
                    }}
                try:
                    reply = self.conn.recv()
                except (EOFError, OSError):
                    return self._crashed()
                if reply != BEAT:
                    return reply
                if on_beat is not None:
                    on_beat()
                readable = loop.create_future()
        finally:
            loop.remove_reader(fd)

    def _crashed(self) -> Dict[str, Any]:
        return {"ok": False, "error": {
            "type": "WorkerCrashed",
            "message": f"worker {self.worker_id} died "
                       f"(exitcode={self.process.exitcode})",
        }}

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Terminate without ceremony (timeouts, drain deadline)."""
        try:
            self.process.kill()
        except Exception:
            pass
        self.process.join(timeout=2.0)
        try:
            self.conn.close()
        except Exception:
            pass

    def shutdown(self, timeout: float = 2.0) -> None:
        """Polite shutdown; falls back to kill."""
        try:
            self.conn.send(SHUTDOWN)
        except OSError:
            pass
        self.process.join(timeout=timeout)
        self.kill()


class WarmPool:
    """The worker set: spawn-on-boot, replace-on-death, drain-on-stop."""

    def __init__(self, size: int, target: Callable[..., None],
                 args: Sequence[Any] = ()) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.target = target
        self.args = tuple(args)
        self._next_id = 0
        self.replacements = 0
        self.workers: List[Worker] = [self._spawn() for _ in range(size)]

    def _spawn(self) -> Worker:
        worker = Worker(self._next_id, self.target, self.args)
        self._next_id += 1
        return worker

    def replace(self, worker: Worker) -> Worker:
        """Retire ``worker`` (killing it if needed) and spawn a fresh one."""
        worker.kill()
        fresh = self._spawn()
        try:
            idx = self.workers.index(worker)
            self.workers[idx] = fresh
        except ValueError:
            self.workers.append(fresh)
        self.replacements += 1
        return fresh

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.shutdown()
        self.workers.clear()
