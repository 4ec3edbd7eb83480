"""Request coalescing: batch compatible evaluations into one solve.

Evaluation requests that share a :func:`repro.serve.protocol.
coalesce_key` — same family and system shape — hit the *same* factorised
operator, so their right-hand sides can ride one multi-RHS
``getrs``/``splu`` call instead of ``k`` separate solves.  The coalescer
batches only while every worker is busy:

- the first request of a key opens a bucket, and the bucket asks for a
  worker at once;
- compatible requests that arrive while it waits join the bucket, up to
  ``max_width``; a full bucket is detached, so later arrivals open a new
  bucket that waits for the next worker;
- the bucket flushes as one job the moment a worker is checked out.

An evaluation that finds a worker idle therefore goes out at once with
width 1, and under saturation batches grow as wide as the queue allows.
There is no timer: nothing ever waits for a batch to fill.

Each joined request holds an ``asyncio.Future`` resolved with *its own*
slice of the batch result.  A request whose client disconnected before
the flush has a cancelled future — the batch still runs for the
remaining members and the cancelled slot is simply dropped.  If every
member left, the checked-out worker is released without running a job.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Set, Tuple

__all__ = ["Coalescer"]

_Items = List[Tuple[Any, asyncio.Future]]


class Coalescer:
    """Busy-only, width-bounded batcher over a worker checkout.

    ``acquire()`` checks a worker out (waiting for one if all are busy)
    and ``release(worker)`` returns an unused one.  ``flush(requests,
    worker)`` runs the batch on the checked-out worker, owns the worker
    from then on, and must return one result dict per request, aligned
    by position.  If ``flush`` raises, every pending future in the
    bucket receives the exception (clients see a typed error, not a
    hang).
    """

    def __init__(
        self,
        flush: Callable[[List[Any], Any], Awaitable[List[Dict[str, Any]]]],
        acquire: Callable[[], Awaitable[Any]],
        release: Callable[[Any], None],
        max_width: int = 16,
    ) -> None:
        if max_width < 1:
            raise ValueError("max_width must be >= 1")
        self._flush = flush
        self._acquire = acquire
        self._release = release
        self.max_width = int(max_width)
        self._open: Dict[Tuple, _Items] = {}
        self._pending: Set[asyncio.Task] = set()

    async def submit(self, key: Tuple, request: Any) -> Dict[str, Any]:
        """Join the open bucket for ``key``; resolves with this request's result."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        items = self._open.get(key)
        if items is None:
            items = self._open[key] = []
            task = asyncio.ensure_future(self._dispatch(key, items))
            self._pending.add(task)
            task.add_done_callback(self._pending.discard)
        items.append((request, future))
        if len(items) >= self.max_width:
            del self._open[key]
        return await future

    async def _dispatch(self, key: Tuple, items: _Items) -> None:
        """Wait for a worker, close the bucket, run it as one job."""
        try:
            worker = await self._acquire()
        except BaseException:
            for _, fut in items:
                fut.cancel()
            raise
        finally:
            # Closed at checkout: later arrivals open the next bucket.
            if self._open.get(key) is items:
                del self._open[key]
        # Drop requests whose clients have already gone away.
        live = [(req, fut) for req, fut in items if not fut.done()]
        if not live:
            self._release(worker)
            return
        try:
            results = await self._flush([req for req, _ in live], worker)
        except Exception as exc:  # noqa: BLE001 — propagate to every waiter
            for _, fut in live:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for (_, fut), result in zip(live, results):
            if not fut.done():
                fut.set_result(result)

    async def drain(self) -> None:
        """Wait until every bucket has flushed (graceful shutdown)."""
        while self._pending:
            await asyncio.gather(*self._pending, return_exceptions=True)
