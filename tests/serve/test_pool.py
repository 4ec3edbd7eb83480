"""The warm worker pool: typed failures, replacement, clean shutdown."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.parallel.pool import WarmPool, Worker
from repro.serve.worker import serve_worker_main


def call(worker, job, timeout):
    """Run one round trip on a fresh event loop; check it left no reader."""
    async def round_trip():
        reply = await worker.call(job, timeout)
        # remove_reader is True only if a reader was still registered.
        assert not asyncio.get_running_loop().remove_reader(
            worker.conn.fileno()
        )
        return reply

    return asyncio.run(round_trip())


@pytest.fixture()
def worker():
    w = Worker(0, serve_worker_main, (0,))
    yield w
    w.shutdown()


def test_ping_round_trip(worker):
    reply = call(worker, {"op": "ping"}, timeout=30.0)
    assert reply["ok"]
    assert reply["result"]["pid"] != 0
    assert reply["result"]["pid"] != os.getpid()


def test_crash_mid_request_is_typed_not_raised(worker):
    reply = call(worker, {"op": "crash"}, timeout=30.0)
    assert not reply["ok"]
    assert reply["error"]["type"] == "WorkerCrashed"
    worker.process.join(timeout=5.0)  # reap before asserting liveness
    assert not worker.alive()
    # A dead worker keeps answering with the typed error, never raising.
    again = call(worker, {"op": "ping"}, timeout=5.0)
    assert again["error"]["type"] == "WorkerCrashed"


def test_deadline_overrun_is_typed_timeout(worker):
    reply = call(worker, {"op": "sleep", "seconds": 30.0}, timeout=0.2)
    assert not reply["ok"]
    assert reply["error"]["type"] == "RequestTimeout"


class TestWarmPool:
    def test_pool_boots_distinct_workers(self):
        pool = WarmPool(2, serve_worker_main, (0,))
        try:
            pids = {
                call(w, {"op": "ping"}, timeout=30.0)["result"]["pid"]
                for w in pool.workers
            }
            assert len(pids) == 2
        finally:
            pool.shutdown()

    def test_replace_swaps_in_a_live_worker(self):
        pool = WarmPool(1, serve_worker_main, (0,))
        try:
            dead = pool.workers[0]
            call(dead, {"op": "crash"}, timeout=30.0)
            dead.process.join(timeout=5.0)  # reap before asserting liveness
            assert not dead.alive()
            fresh = pool.replace(dead)
            assert fresh is pool.workers[0] and fresh is not dead
            assert pool.replacements == 1
            reply = call(fresh, {"op": "ping"}, timeout=30.0)
            assert reply["ok"]
        finally:
            pool.shutdown()

    def test_shutdown_reaps_all_processes(self):
        pool = WarmPool(2, serve_worker_main, (0,))
        workers = list(pool.workers)
        pool.shutdown()
        assert all(not w.alive() for w in workers)
