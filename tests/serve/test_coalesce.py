"""The busy-only coalescer: idle dispatch, batching behind busy workers,
width split, failure fan-out, cancellation, no worker leaks.

A fake worker pool stands in for the service: ``acquire`` takes a token
from an ``asyncio.Queue`` and the fake ``flush`` puts it back, so a test
holds every worker busy simply by taking the tokens itself.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.coalesce import Coalescer


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=5.0))


async def spin(turns=5):
    """Let the event loop run a few turns; no time passes on a timer."""
    for _ in range(turns):
        await asyncio.sleep(0)


class FakePool:
    """``n`` worker tokens plus a flush that logs ``(token, batch)``."""

    def __init__(self, n=1):
        self.tokens = asyncio.Queue()
        for i in range(n):
            self.tokens.put_nowait(i)
        self.log = []

    async def flush(self, requests, token):
        self.log.append((token, list(requests)))
        self.tokens.put_nowait(token)
        return [{"echo": r} for r in requests]

    def coalescer(self, max_width=16, flush=None):
        return Coalescer(flush or self.flush, self.tokens.get,
                         self.tokens.put_nowait, max_width=max_width)

    @property
    def batches(self):
        return [batch for _, batch in self.log]


def test_idle_worker_flushes_within_the_loop_turn():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer()
        task = asyncio.ensure_future(co.submit(("k",), "a"))
        await spin()
        assert task.done()  # no window: it never waited for company
        return pool, task.result()

    pool, result = run(scenario())
    assert result == {"echo": "a"}
    assert pool.log == [(0, ["a"])]


def test_submits_behind_a_busy_worker_flush_as_one_batch():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer()
        token = await pool.tokens.get()  # the only worker is busy
        tasks = [asyncio.ensure_future(co.submit(("k",), r)) for r in "abcd"]
        await spin()
        assert pool.log == [] and not any(t.done() for t in tasks)
        pool.tokens.put_nowait(token)
        return pool, await asyncio.gather(*tasks)

    pool, results = run(scenario())
    assert [r["echo"] for r in results] == ["a", "b", "c", "d"]
    assert pool.batches == [["a", "b", "c", "d"]]  # one batch, in order


def test_max_width_detaches_and_remainder_waits_for_next_worker():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer(max_width=2)
        token = await pool.tokens.get()
        tasks = [asyncio.ensure_future(co.submit(("k",), i)) for i in range(5)]
        await spin()
        pool.tokens.put_nowait(token)
        return pool, await asyncio.gather(*tasks)

    pool, results = run(scenario())
    assert [r["echo"] for r in results] == [0, 1, 2, 3, 4]
    # Full buckets detach; each waits for its own checkout, in order.
    assert pool.batches == [[0, 1], [2, 3], [4]]


def test_width_trigger_fires_before_window():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer(max_width=2)
        token = await pool.tokens.get()
        full = [asyncio.ensure_future(co.submit(("k",), i)) for i in (1, 2)]
        await spin()
        # The bucket closed when it filled, before any worker was free:
        # a later arrival cannot join it, even though it has not flushed.
        late = asyncio.ensure_future(co.submit(("k",), 3))
        await spin()
        assert pool.log == []
        pool.tokens.put_nowait(token)
        return pool, await asyncio.gather(*full, late)

    pool, results = run(scenario())
    assert [r["echo"] for r in results] == [1, 2, 3]
    assert pool.batches == [[1, 2], [3]]


def test_counters_track_batches_and_widths():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer(max_width=2)
        await co.submit(("k",), "idle")  # an idle worker: width 1
        token = await pool.tokens.get()
        tasks = [asyncio.ensure_future(co.submit(("k",), i)) for i in range(4)]
        await spin()
        pool.tokens.put_nowait(token)
        await asyncio.gather(*tasks)
        return pool

    pool = run(scenario())
    widths = [len(batch) for batch in pool.batches]
    assert len(pool.log) == 3
    assert widths == [1, 2, 2]
    assert sum(widths) == 5  # every request rode exactly one batch


def test_arrival_after_checkout_waits_for_the_next_worker():
    async def scenario():
        pool = FakePool(1)
        gate = asyncio.Event()

        async def slow_flush(requests, token):
            await gate.wait()
            return await pool.flush(requests, token)

        co = pool.coalescer(flush=slow_flush)
        first = asyncio.ensure_future(co.submit(("k",), "a"))
        await spin()  # "a" is out on the only worker
        second = asyncio.ensure_future(co.submit(("k",), "b"))
        await spin()
        gate.set()
        return pool, await asyncio.gather(first, second)

    pool, results = run(scenario())
    assert [r["echo"] for r in results] == ["a", "b"]
    assert pool.batches == [["a"], ["b"]]


def test_distinct_keys_never_mix():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer()
        token = await pool.tokens.get()
        tasks = [asyncio.ensure_future(co.submit(key, r))
                 for key, r in [(("k1",), "a"), (("k2",), "b"),
                                (("k1",), "c"), (("k2",), "d")]]
        await spin()
        pool.tokens.put_nowait(token)
        await asyncio.gather(*tasks)
        return pool

    pool = run(scenario())
    assert pool.batches == [["a", "c"], ["b", "d"]]


def test_flush_failure_reaches_every_waiter():
    async def scenario():
        pool = FakePool(1)

        async def flush(requests, token):
            pool.tokens.put_nowait(token)
            raise RuntimeError("solver exploded")

        co = pool.coalescer(flush=flush)
        token = await pool.tokens.get()
        tasks = [asyncio.ensure_future(co.submit(("k",), i)) for i in range(3)]
        await spin()
        pool.tokens.put_nowait(token)
        return await asyncio.gather(*tasks, return_exceptions=True)

    results = run(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_cancelled_member_is_dropped_not_flushed():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer()
        token = await pool.tokens.get()
        keep = asyncio.ensure_future(co.submit(("k",), "keep"))
        gone = asyncio.ensure_future(co.submit(("k",), "gone"))
        await spin()  # both joined the bucket
        gone.cancel()
        pool.tokens.put_nowait(token)
        result = await keep
        with pytest.raises(asyncio.CancelledError):
            await gone
        return pool, result

    pool, result = run(scenario())
    assert result["echo"] == "keep"
    assert pool.batches == [["keep"]]  # the cancelled request never ran


def test_all_cancelled_bucket_returns_its_worker():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer()
        token = await pool.tokens.get()
        tasks = [asyncio.ensure_future(co.submit(("k",), i)) for i in range(3)]
        await spin()
        for t in tasks:
            t.cancel()
        pool.tokens.put_nowait(token)
        await co.drain()
        return pool

    pool = run(scenario())
    assert pool.log == []  # no job ran ...
    assert pool.tokens.qsize() == 1  # ... and the worker is back


def test_drain_flushes_open_buckets():
    async def scenario():
        pool = FakePool(1)
        co = pool.coalescer()
        token = await pool.tokens.get()
        task = asyncio.ensure_future(co.submit(("k",), "x"))
        await spin()
        drain = asyncio.ensure_future(co.drain())
        await spin()
        assert not drain.done()  # the bucket still waits for a worker
        pool.tokens.put_nowait(token)
        await drain
        assert task.done()
        return pool, task.result()

    pool, result = run(scenario())
    assert result["echo"] == "x"
    assert pool.batches == [["x"]]
