"""Warm worker pool: spawn, dispatch, detect crashes, replace.

A :class:`ServeWorker` wraps one long-lived worker process and its pipe.
Its :meth:`ServeWorker.call` is a coroutine that runs the round trip on
the event loop: it sends the job, awaits the pipe's readability through
``loop.add_reader`` under the deadline, and reads the reply — no thread
hop on either side.  It **never raises**: a dead pipe comes back as a
``{"type": "WorkerCrashed"}`` error payload and an expired deadline as
``{"type": "RequestTimeout"}`` — the service maps those to typed HTTP
errors and decides whether to replace the worker.  The distinction
matters: after a timeout the worker is *still busy* with the stale job,
so it must be killed and replaced, not returned to rotation; after a
crash the process is already gone and only needs replacing.

One job at a time per worker is the caller's contract: the service
checks a worker out of its idle queue before calling it, so a job
always reaches a worker that is blocked in ``recv`` and the send never
waits for compute.

:class:`WarmPool` owns the worker set.  It is deliberately free of any
scheduling policy — checkout/checkin order lives in the service's
``asyncio.Queue`` — and its lifecycle calls (spawn, replace, shutdown)
stay blocking.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
from typing import Any, Dict, List, Optional

from repro.serve.worker import serve_worker_main

__all__ = ["ServeWorker", "WarmPool"]


class ServeWorker:
    """One warm worker process plus the parent end of its pipe."""

    def __init__(self, worker_id: int, root_seed: int = 0) -> None:
        self.worker_id = int(worker_id)
        self.root_seed = int(root_seed)
        ctx = mp.get_context()
        parent, child = ctx.Pipe(duplex=True)
        self.conn = parent
        self.process = ctx.Process(
            target=serve_worker_main,
            args=(child, root_seed),
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child.close()

    async def call(self, job: Dict[str, Any],
                   timeout: Optional[float] = None) -> Dict[str, Any]:
        """Send one job, await its reply on the running loop; returns
        typed errors, never raises (cancellation propagates)."""
        try:
            self.conn.send(job)
            fd = self.conn.fileno()
        except OSError:
            return _crashed(self)
        loop = asyncio.get_running_loop()
        readable = loop.create_future()

        def on_readable() -> None:
            if not readable.done():
                readable.set_result(None)

        loop.add_reader(fd, on_readable)
        try:
            await asyncio.wait_for(readable, timeout)
        except asyncio.TimeoutError:
            return {"ok": False, "error": {
                "type": "RequestTimeout",
                "message": f"worker {self.worker_id} exceeded "
                           f"{timeout:g}s; killing it",
            }}
        finally:
            loop.remove_reader(fd)
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return _crashed(self)

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
            self.conn.send({"op": "shutdown"})
            if self.conn.poll(timeout):
                self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except Exception:
                pass


def _crashed(worker: ServeWorker) -> Dict[str, Any]:
    exitcode = worker.process.exitcode
    return {"ok": False, "error": {
        "type": "WorkerCrashed",
        "message": f"worker {worker.worker_id} died "
                   f"(exitcode={exitcode})",
    }}


class WarmPool:
    """The worker set: spawn-on-boot, replace-on-death, drain-on-stop."""

    def __init__(self, size: int, root_seed: int = 0) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = int(size)
        self.root_seed = int(root_seed)
        self._next_id = 0
        self.replacements = 0
        self.workers: List[ServeWorker] = [self._spawn() for _ in range(size)]

    def _spawn(self) -> ServeWorker:
        worker = ServeWorker(self._next_id, self.root_seed)
        self._next_id += 1
        return worker

    def replace(self, worker: ServeWorker) -> ServeWorker:
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
