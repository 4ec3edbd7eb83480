"""The asyncio HTTP front of the control service.

Request lifecycle (DESIGN.md §16):

1. **parse** — minimal HTTP/1.1 read (request line, headers,
   content-length body), JSON decode, :func:`repro.serve.protocol.
   parse_request` validation.  Failures, a malformed request head
   included, are typed 400s.
2. **admit** — a bounded in-flight counter implements backpressure: at
   ``queue_limit`` concurrent requests the service answers 429
   immediately instead of queueing unboundedly.
3. **store probe** — the request digest is looked up in the result
   store's in-memory index; a hit replays the original payload
   byte-for-byte from its log (``X-Repro-Store: hit``) without touching
   a worker.
4. **dispatch** — every request, solve or evaluate, waits for a warm
   worker in one FIFO queue and runs as one job on it.  Worker round
   trips run on the event loop itself (no executor thread) with a
   per-request deadline.
5. **settle** — worker replies map to HTTP statuses (400/500/504); a
   crashed or deadline-blown worker is killed and replaced before the
   next request can check it out.  A completed payload is strict JSON
   (a non-finite result is a typed 500, never stored) and is appended
   to the store's log.  A client that disconnects mid-flight has its
   work cancelled and its admission slot freed.

Everything observable lands in a service-private
:class:`~repro.obs.metrics.MetricsRegistry` under ``serve.*`` plus the
``cache.*`` gauges aggregated from worker piggyback reports; ``GET
/metrics`` exports the snapshot with p50/p95/p99 latency.
"""

from __future__ import annotations

import asyncio
import collections
import json
import signal
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.parallel.pool import WarmPool, Worker
from repro.serve.protocol import RequestError, parse_request, request_digest
from repro.serve.store import ResultStore
from repro.serve.worker import serve_worker_main

__all__ = ["ControlService", "ServeConfig"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Worker error type -> HTTP status.
_ERROR_STATUS = {
    "RequestError": 400,
    "RequestTimeout": 504,
    "WorkerCrashed": 500,
    "InternalError": 500,
}

#: How long a connection whose request head was rejected may keep
#: sending before it is closed (see ``ControlService._linger``).
LINGER_S = 2.0


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs; defaults favour tests (ephemeral port, small pool)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = OS-assigned; read service.port
    workers: int = 2
    queue_limit: int = 32              # concurrent admissions before 429
    request_timeout_s: float = 60.0
    store_dir: Optional[str] = None    # None disables the result store
    root_seed: int = 0
    drain_timeout_s: float = 10.0
    max_body_bytes: int = 8 << 20


class _ServeError(Exception):
    """Internal: a typed failure with an HTTP status."""

    def __init__(self, status: int, etype: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.etype = etype


class ControlService:
    """The long-running control service (see module docstring)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.store = (
            ResultStore(self.config.store_dir)
            if self.config.store_dir else None
        )
        self.pool: Optional[WarmPool] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        # Idle workers.  Every request checks a worker out of this one
        # FIFO queue, first come first served.
        self._worker_queue: "asyncio.Queue[Worker]" = asyncio.Queue()
        # Worker round trips still running, including those of requests
        # whose clients went away; drain waits for them.
        self._calls: Set[asyncio.Task] = set()
        self._inflight = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._latencies: "collections.deque[float]" = collections.deque(maxlen=4096)
        # Each worker's last cumulative cache report, by worker id.  A
        # retired worker's report stays (its replacement gets a fresh
        # id), so the summed ``cache.*`` totals never fall.
        self._worker_obs: Dict[int, Dict[str, Dict[str, int]]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Boot the warm pool and bind the listening socket."""
        self.pool = WarmPool(self.config.workers, serve_worker_main,
                             (self.config.root_seed,))
        for worker in self.pool.workers:
            self._worker_queue.put_nowait(worker)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.registry.gauge("serve.workers").set(len(self.pool.workers))

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (SIGTERM drain included)."""
        await self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (stop accepting, finish
        in-flight work, shut the pool down)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.stop())
            )

    async def stop(self) -> None:
        """Graceful drain: refuse new work, settle in-flight requests and
        worker round trips, shut workers down."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_timeout_s
        )
        while self._inflight > 0 or self._calls:
            if asyncio.get_running_loop().time() > deadline:
                break
            await asyncio.sleep(0.02)
        # Past the deadline: unregister the pipes' readers before the
        # pool closes the pipes under them.
        for call in list(self._calls):
            call.cancel()
        await asyncio.gather(*self._calls, return_exceptions=True)
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.shutdown
            )
        if self.store is not None:
            self.store.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Worker dispatch
    # ------------------------------------------------------------------
    def _settle_worker(self, worker: Worker, reply: Any) -> None:
        """Return ``worker`` to rotation — or replace it if the reply
        says it crashed or blew its deadline (a timed-out worker is
        still busy with the stale job and must not serve again)."""
        etype = None
        if isinstance(reply, dict):
            etype = (reply.get("error") or {}).get("type")
            obs = reply.get("obs")
            if obs:
                self._worker_obs[worker.worker_id] = obs
        if etype in ("WorkerCrashed", "RequestTimeout") or not worker.alive():
            name = ("serve.worker.timeouts" if etype == "RequestTimeout"
                    else "serve.worker.crashes")
            self.registry.counter(name).inc()
            fresh = self.pool.replace(worker)
            self._worker_queue.put_nowait(fresh)
        else:
            self._worker_queue.put_nowait(worker)

    async def _worker_call(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Check a worker out, run one job on it as its own task, then
        settle the worker.

        Cancellation-safe: if the awaiting request is cancelled (client
        disconnect), the shielded round trip runs on and the worker is
        settled from a done-callback — a disconnect never leaks a worker
        out of rotation.
        """
        worker = await self._worker_queue.get()
        call = asyncio.ensure_future(
            worker.call(job, self.config.request_timeout_s)
        )
        self._calls.add(call)
        call.add_done_callback(self._calls.discard)
        try:
            reply = await asyncio.shield(call)
        except asyncio.CancelledError:
            call.add_done_callback(
                lambda t: self._settle_worker(
                    worker, None if t.cancelled() else t.result()
                )
            )
            raise
        self._settle_worker(worker, reply)
        return reply

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    async def _process_control(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        """Validate, store-probe, dispatch, settle one control request."""
        try:
            obj = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return self._error(400, "RequestError", f"invalid JSON body: {exc}")
        try:
            request = parse_request(obj)
        except RequestError as exc:
            return self._error(400, "RequestError", str(exc))
        digest = request_digest(request)

        if self.store is not None:
            cached = self.store.get(digest)
            if cached is not None:
                self.registry.counter("serve.store.hits").inc()
                return 200, cached, {"X-Repro-Store": "hit"}
            self.registry.counter("serve.store.misses").inc()

        if request.kind == "evaluate":
            job = {"op": "evaluate", "requests": [request]}
        else:
            job = {"op": "solve", "request": request, "digest": digest}
        reply = await self._worker_call(job)
        if reply.get("ok"):
            result = (reply["results"][0] if request.kind == "evaluate"
                      else reply["result"])
            err = result.get("error")
        else:
            err = reply.get("error") or {}
        if err is not None:
            etype = err.get("type", "InternalError")
            return self._error(_ERROR_STATUS.get(etype, 500), etype,
                               err.get("message", "worker failure"))

        try:
            payload = json.dumps(
                {"digest": digest, "result": result},
                sort_keys=True, separators=(",", ":"), allow_nan=False,
            ).encode("utf-8")
        except ValueError as exc:  # a NaN or infinity in the result
            return self._error(500, "InternalError",
                               f"non-finite {request.kind} result: {exc}")
        if self.store is not None:
            self.store.put(digest, payload)
        return 200, payload, {"X-Repro-Store": "miss"}

    def _error(self, status: int, etype: str, message: str) -> Tuple[int, bytes, Dict[str, str]]:
        body = json.dumps(
            {"error": {"type": etype, "message": message}},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        return status, body, {}

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            parsed = await self._read_http(reader)
            if parsed is None:
                return
            method, path, body = parsed
            if path == "/healthz" and method == "GET":
                await self._write(writer, 200, self._healthz_body(), {})
                return
            if path == "/metrics" and method == "GET":
                await self._write(writer, 200, self._metrics_body(), {})
                return
            if path != "/v1/control":
                await self._write(writer, *self._error(
                    404, "NotFound", f"no route {path!r}"
                ))
                return
            if method != "POST":
                await self._write(writer, *self._error(
                    405, "MethodNotAllowed", "use POST /v1/control"
                ))
                return
            if self._draining:
                await self._write(writer, *self._error(
                    503, "Draining", "service is draining"
                ))
                return
            if self._inflight >= self.config.queue_limit:
                self.registry.counter("serve.rejected").inc()
                await self._write(writer, *self._error(
                    429, "Backpressure",
                    f"queue full ({self.config.queue_limit} in flight); retry",
                ))
                return
            await self._admit(reader, writer, body)
        except _ServeError as exc:  # a malformed or oversized request head
            await self._write(writer, *self._error(
                exc.status, exc.etype, str(exc)
            ))
            await self._linger(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _admit(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter, body: bytes) -> None:
        """Run one admitted control request, watching for client
        disconnect; the admission slot is freed on every path."""
        loop = asyncio.get_running_loop()
        self._inflight += 1
        self.registry.gauge("serve.queue_depth").set(self._inflight)
        self.registry.counter("serve.requests.total").inc()
        t0 = loop.time()
        work = asyncio.ensure_future(self._process_control(body))
        # With Connection: close the client sends nothing after the
        # body, so this read resolves only when the peer goes away.
        watch = asyncio.ensure_future(reader.read(1))
        try:
            done, _ = await asyncio.wait(
                {work, watch}, return_when=asyncio.FIRST_COMPLETED
            )
            if work not in done:
                work.cancel()
                try:
                    await work
                except (asyncio.CancelledError, Exception):
                    pass
                self.registry.counter("serve.client.disconnects").inc()
                return
            watch.cancel()
            status, payload, headers = work.result()
            dt = loop.time() - t0
            self._latencies.append(dt)
            self.registry.histogram("serve.latency_s").observe(dt)
            name = "serve.requests.ok" if status == 200 else "serve.requests.error"
            self.registry.counter(name).inc()
            await self._write(writer, status, payload, headers)
        finally:
            self._inflight -= 1
            self.registry.gauge("serve.queue_depth").set(self._inflight)

    async def _read_http(self, reader: asyncio.StreamReader):
        try:
            line = await reader.readline()
            if not line:
                return None
            parts = line.decode("latin-1").split()
            if len(parts) < 2:
                return None
            method, path = parts[0], parts[1]
            headers: Dict[str, str] = {}
            while True:
                h = await reader.readline()
                if h in (b"\r\n", b"\n", b""):
                    break
                key, _, value = h.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
        except ValueError as exc:  # a line longer than the stream limit
            raise _ServeError(400, "RequestError",
                              f"malformed request head: {exc}") from exc
        raw_length = headers.get("content-length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _ServeError(400, "RequestError",
                              f"invalid Content-Length {raw_length!r}")
        if length > self.config.max_body_bytes:
            raise _ServeError(
                413, "PayloadTooLarge",
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit"
            )
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, body

    async def _linger(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Half-close, then drop what the client still sends until it
        closes (at most ``LINGER_S``).  Closing with unread input resets
        the connection, which can destroy the reply before the client
        reads it."""
        async def drop_input() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            writer.write_eof()
            await asyncio.wait_for(drop_input(), LINGER_S)
        except (asyncio.TimeoutError, OSError):
            pass

    async def _write(self, writer: asyncio.StreamWriter, status: int,
                     body: bytes, extra: Dict[str, str]) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head += [f"{k}: {v}" for k, v in extra.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # Introspection bodies
    # ------------------------------------------------------------------
    def _healthz_body(self) -> bytes:
        doc = {
            "status": "draining" if self._draining else "ok",
            "workers": len(self.pool.workers) if self.pool else 0,
            "inflight": self._inflight,
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 over the rolling latency window (seconds)."""
        lat = sorted(self._latencies)
        if not lat:
            return {"p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0, "count": 0}

        def pick(q: float) -> float:
            return lat[min(int(q * len(lat)), len(lat) - 1)]

        return {
            "p50_s": pick(0.50), "p95_s": pick(0.95), "p99_s": pick(0.99),
            "count": len(lat),
        }

    def _metrics_body(self) -> bytes:
        # Fold the workers' cumulative cache counters into the service
        # registry so one snapshot shows request AND cache behaviour.
        totals: Dict[str, Dict[str, int]] = {}
        for obs in self._worker_obs.values():
            for cache, hm in obs.items():
                agg = totals.setdefault(cache, {"hits": 0, "misses": 0})
                agg["hits"] += int(hm.get("hits", 0))
                agg["misses"] += int(hm.get("misses", 0))
        for cache, hm in totals.items():
            self.registry.record_cache(cache, hm["hits"], hm["misses"])
        doc = {
            "metrics": self.registry.snapshot(),
            "latency": self.latency_percentiles(),
            "store": {
                "hits": self.store.hits if self.store else 0,
                "misses": self.store.misses if self.store else 0,
            },
            "pool": {
                "workers": len(self.pool.workers) if self.pool else 0,
                "replacements": self.pool.replacements if self.pool else 0,
            },
            "inflight": self._inflight,
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")
