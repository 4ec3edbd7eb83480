"""The served control mix: closed-loop clients against ``python -m repro.serve``.

The service runs as its own process (2 warm workers, a disk result store
under the benchmark's work directory).  Two client threads in this
process each send their next request as soon as the previous reply
arrives (a closed loop, no think time).  Each client's stream is drawn
from ``(seed, client)``:

==============  =====  ===============================================
kind            share  request
==============  =====  ===============================================
``evaluate``    70 %   Laplace cost of a distinct random control
``solve_dp``    10 %   Laplace DP solve, iterations ∈ {20, 40, 60}
``solve_dal``    5 %   Laplace DAL solve, iterations ∈ {20, 40, 60}
``evaluate_ns``  5 %   Navier–Stokes cost of a perturbed Poiseuille inflow
``replay``      10 %   byte-identical re-submit of one of the client's
                       earlier solves (must be a store hit)
==============  =====  ===============================================

The kinds are dealt from a deck of 20 holding each kind's exact share,
reshuffled when it runs out, and solve iteration counts from a deck of
the three; i.i.d. draws would let the share of (slow) solves in a
window, and with it throughput and latency, vary from seed to seed by
several per cent.  Solves draw their learning rate from a continuous
range, so two solves never share a store entry by accident.  A warm-up
slice precedes the timed window.  It opens with one request of each
program path, sent by both clients at once, so that each worker builds
every problem, factorisation and compiled program before timing starts
(a cold Navier–Stokes evaluate takes over a second).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.pde.navier_stokes import poiseuille_profile
from repro.serve.client import ServeClient

import stats

MIX: Tuple[Tuple[str, float], ...] = (
    ("evaluate", 0.70),
    ("solve_dp", 0.10),
    ("solve_dal", 0.05),
    ("evaluate_ns", 0.05),
    ("replay", 0.10),
)
KINDS = tuple(kind for kind, _ in MIX)
DECK = tuple(kind for kind, share in MIX for _ in range(round(20 * share)))
ITERATIONS = (20, 40, 60)
#: First requests of every stream: one of each program path.  During the
#: warm-up the clients send these in lock step, so concurrent solves land
#: on different workers.
WARM_PREFIX = ("solve_dp", "evaluate_ns", "solve_dal", "evaluate")
#: Evaluates arriving within the service's coalescing window (10 ms) ride
#: one batch on one worker; the second client's Navier–Stokes evaluate is
#: sent later than that so that it reaches the other worker.
NS_STAGGER_S = 0.05
CLIENTS = 2
WORKERS = 2
WARMUP_PER_CLIENT = 50
#: ``run_s`` is the time to serve this many requests at the window's rate.
SOLUTION_REQUESTS = 800
#: Re-run sample per kind for the parity check against ``execute_job``.
PARITY_SAMPLE = {"evaluate": 8, "evaluate_ns": 4, "solve_dp": 4, "solve_dal": 4}
PARITY_RTOL = 1e-9
BOOT_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0


class ServeStream:
    """The deterministic request stream of one client.

    The i-th request depends only on ``(seed, client, i)``, never on
    timing: a replay picks among the client's own earlier solves, which a
    closed loop has always completed before it is sent.
    """

    def __init__(self, seed: int, client: int, n_control: int,
                 ns_inflow: np.ndarray) -> None:
        self.rng = np.random.default_rng([seed, client])
        self.n_control = int(n_control)
        self.ns_inflow = np.asarray(ns_inflow, dtype=np.float64)
        # Dealt from the end: the warm-up prefix first, then shuffled decks.
        # The prefix holds a solve, so a replay always has one to repeat.
        self._kinds = list(reversed(WARM_PREFIX))
        self._iterations: List[int] = []
        self._solves: List[Dict[str, Any]] = []

    def _deal(self, deck: List[Any], full: Tuple[Any, ...]) -> Any:
        if not deck:
            deck.extend(full[i] for i in self.rng.permutation(len(full)))
        return deck.pop()

    def next(self) -> Tuple[str, Dict[str, Any]]:
        rng = self.rng
        kind = self._deal(self._kinds, DECK)
        if kind == "evaluate":
            control = 0.1 * rng.standard_normal(self.n_control)
            return kind, {"family": "laplace", "kind": "evaluate",
                          "control": control.tolist()}
        if kind == "evaluate_ns":
            control = self.ns_inflow * (
                1.0 + 0.01 * rng.standard_normal(self.ns_inflow.size)
            )
            return kind, {"family": "ns", "kind": "evaluate",
                          "control": control.tolist()}
        if kind == "replay":
            return kind, self._solves[int(rng.integers(len(self._solves)))]
        request = {
            "family": "laplace", "kind": "solve",
            "method": "dp" if kind == "solve_dp" else "dal",
            "iterations": self._deal(self._iterations, ITERATIONS),
            "lr": float(rng.uniform(0.005, 0.02)),
        }
        self._solves.append(request)
        return kind, request


def stream_inputs() -> Tuple[int, np.ndarray]:
    """Control sizes of the served problems: Laplace 26×26, channel 21×11."""
    n_control = SquareCloud(26).groups["top"].size
    cloud = ChannelCloud(21, 11)
    inflow_y = np.sort(cloud.points[cloud.groups["inflow"], 1])
    return n_control, poiseuille_profile(inflow_y)


@dataclass
class Record:
    """One round trip, as the client saw it."""

    client: int
    kind: str
    phase: str
    t0: float
    t1: float
    status: int
    store: str
    request: Dict[str, Any]
    payload: bytes
    error: str = ""

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


def _client_loop(client: ServeClient, cid: int, stream: ServeStream,
                 out: List[Record], phase: str, count: Optional[int],
                 deadline: Optional[float],
                 barrier: Optional[threading.Barrier] = None) -> None:
    n = 0
    while (count is None or n < count) and (
        deadline is None or time.perf_counter() < deadline
    ):
        kind, request = stream.next()
        if barrier is not None and n < len(WARM_PREFIX):
            barrier.wait()
            if kind == "evaluate_ns":
                time.sleep(NS_STAGGER_S * cid)
        t0 = time.perf_counter()
        try:
            status, headers, payload = client.post_control_raw(request)
            error = ""
        except (OSError, http.client.HTTPException) as exc:
            status, headers, payload = 0, {}, b""
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        out.append(Record(cid, kind, phase, t0, t1, status,
                          headers.get("x-repro-store", ""), request, payload,
                          error))
        n += 1


def _drive(clients: List[ServeClient], streams: List[ServeStream], phase: str,
           count: Optional[int] = None, deadline: Optional[float] = None,
           lock_step_prefix: bool = False) -> List[Record]:
    """Run every client's closed loop on its own thread; join them all."""
    outs: List[List[Record]] = [[] for _ in clients]
    barrier = threading.Barrier(len(clients)) if lock_step_prefix else None
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(c, i, streams[i], outs[i], phase, count, deadline, barrier),
            name=f"perf-client-{i}",
        )
        for i, c in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for out in outs for r in out]


class Service:
    """``python -m repro.serve`` as a child process."""

    def __init__(self, root: str, store_dir: str, env: Dict[str, str]) -> None:
        self.store_dir = store_dir
        self.log_path = store_dir + ".log"
        self._log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", str(WORKERS), "--store-dir", store_dir],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        line = self._readline_with_timeout(BOOT_TIMEOUT_S)
        match = re.search(rb"listening on ([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"service did not boot: {line!r}; log: {self.log_tail()}"
            )
        self.boot_s = time.perf_counter() - t0
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def _readline_with_timeout(self, timeout: float) -> bytes:
        box: List[bytes] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        return box[0] if box else b""

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=CLIENT_TIMEOUT_S)

    def log_tail(self, n: int = 2000) -> str:
        self._log.flush()
        with open(self.log_path, "rb") as f:
            return f.read()[-n:].decode("utf-8", "replace")

    def stop(self) -> None:
        """Graceful drain (SIGTERM); kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


def _max_child_rss_mb() -> float:
    """Largest RSS of any finished descendant (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def _result_cost(record: Record) -> Optional[float]:
    try:
        result = json.loads(record.payload.decode("utf-8"))["result"]
    except (ValueError, KeyError, TypeError):
        return None
    cost = result.get("cost", result.get("final_cost"))
    return float(cost) if isinstance(cost, (int, float)) else None


def _metric(doc: Dict[str, Any], name: str) -> float:
    return float((doc.get("metrics", {}).get(name) or {}).get("value", 0.0))


def _delta(after: Dict[str, Any], before: Dict[str, Any], name: str) -> float:
    return _metric(after, name) - _metric(before, name)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses > 0 else 0.0


def check_responses(records: List[Record]) -> List[Tuple[str, bool, str]]:
    """Every reply is a 200 with a finite cost; every replay is a hit
    whose body is the original reply's, byte for byte."""
    checks = []
    first_payload: Dict[str, bytes] = {}
    for r in sorted(records, key=lambda r: r.t1):
        key = json.dumps(r.request, sort_keys=True)
        cost = _result_cost(r)
        ok = r.status == 200 and cost is not None and math.isfinite(cost)
        checks.append((f"{r.phase} {r.kind}: 200 with a finite cost", ok,
                       f"status={r.status} cost={cost!r} {r.error}"))
        if r.kind == "replay":
            same = first_payload.get(key) == r.payload
            checks.append(("replay: store hit with the original body",
                           r.store == "hit" and same,
                           f"store={r.store!r} same_body={same}"))
        first_payload.setdefault(key, r.payload)
    return checks


def check_parity(records: List[Record], seed: int,
                 minimum: int) -> List[Tuple[str, bool, str]]:
    """Re-run a seeded sample of served requests through ``execute_job``."""
    from repro.serve.protocol import parse_request, request_digest
    from repro.serve.worker import WorkerState, execute_job

    rng = np.random.default_rng([seed, 99])
    state = WorkerState(0)
    checks = []
    ordered = sorted(records, key=lambda r: (r.client, r.t0))
    for kind, k in PARITY_SAMPLE.items():
        pool = [r for r in ordered if r.kind == kind and r.status == 200]
        picks = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
        for i in sorted(int(p) for p in picks):
            r = pool[i]
            parsed = parse_request(r.request)
            if parsed.kind == "solve":
                reply = execute_job(state, {"op": "solve", "request": parsed,
                                            "digest": request_digest(parsed)})
                ref = reply.get("result", {}).get("final_cost")
            else:
                reply = execute_job(state, {"op": "evaluate",
                                            "requests": [parsed]})
                ref = (reply.get("results") or [{}])[0].get("cost")
            got = _result_cost(r)
            ok = (ref is not None and got is not None
                  and math.isclose(got, ref, rel_tol=PARITY_RTOL, abs_tol=1e-15))
            checks.append((f"parity {kind}", ok, f"served={got!r} direct={ref!r}"))
    checks.append((f"parity sample of at least {minimum}", len(checks) >= minimum,
                   f"{len(checks)} re-run"))
    return checks


def run(seed: int, seconds: float, quick: bool, role: str,
        t_spawn: float, root: str, work_dir: str) -> Dict[str, Any]:
    """One serve_mix run; see :mod:`child` for the result layout.

    Traced and untraced runs are the same run: every metric, end-to-end
    and per-layer, comes from it.
    """
    n_control, ns_inflow = stream_inputs()
    env = dict(os.environ)
    store_dir = os.path.join(work_dir, f"store-{os.getpid()}")
    service = Service(root, store_dir, env)
    checks: List[Tuple[str, bool, str]] = []
    try:
        clients = [service.client() for _ in range(CLIENTS)]
        streams = [ServeStream(seed, i, n_control, ns_inflow)
                   for i in range(CLIENTS)]
        t_warm = time.perf_counter()
        warm = _drive(clients, streams, "warmup",
                      count=5 if quick else WARMUP_PER_CLIENT,
                      lock_step_prefix=True)
        warmup_s = time.perf_counter() - t_warm
        setup_s = time.monotonic() - t_spawn
        if role == "setup":
            return {"setup_s": setup_s}

        before = clients[0].metrics()
        if quick:
            timed = _drive(clients, streams, "timed", count=10)
        else:
            timed = _drive(clients, streams, "timed",
                           deadline=time.perf_counter() + seconds)
        after = clients[0].metrics()
    finally:
        service.stop()
        peak_mem_mb = _max_child_rss_mb()
        shutil.rmtree(store_dir, ignore_errors=True)

    checks += check_responses(warm + timed)
    checks += check_parity(timed, seed, minimum=1 if quick else 20)

    min_beyond = 0 if quick else stats.MIN_BEYOND
    lat = [r.ms for r in timed]

    def p(xs: List[float], q: float) -> Optional[float]:
        return stats.percentile(xs, q, min_beyond)

    throughput = len(timed) / (max(r.t1 for r in timed) - min(r.t0 for r in timed))
    metrics: Dict[str, Any] = {
        "run_s": SOLUTION_REQUESTS / throughput,
        "step_ms_p50": p(lat, 50),
        "throughput_per_s": throughput,
        "peak_mem_mb": peak_mem_mb,
    }

    # Per-layer: client latency by kind, server view, service counters.
    # A per-layer tail short of samples (the p99 on a slow machine) reads 0.
    layer = {f"serve.client.{kind}.ms_p50": p([r.ms for r in timed if r.kind == kind], 50)
             for kind in KINDS}
    server = after.get("latency", {})
    layer.update({
        "serve.boot_s": service.boot_s,
        "serve.warmup_s": warmup_s,
        "serve.client.latency_ms_p95": p(lat, 95),
        "serve.client.latency_ms_p99": p(lat, 99),
        "serve.server.latency_ms_p50": float(server.get("p50_s", 0.0)) * 1e3,
        "serve.server.latency_ms_p95": float(server.get("p95_s", 0.0)) * 1e3,
    })
    layer["serve.http_overhead_ms_p50"] = (
        None if metrics["step_ms_p50"] is None
        else metrics["step_ms_p50"] - layer["serve.server.latency_ms_p50"]
    )
    batches = _delta(after, before, "serve.coalesce.batches")
    coalesced = _delta(after, before, "serve.coalesce.requests")
    layer.update({
        "serve.coalesce.batches": batches,
        "serve.coalesce.mean_width": coalesced / batches if batches else 0.0,
        "serve.store.hit_ratio": _ratio(
            _delta(after, before, "serve.store.hits"),
            _delta(after, before, "serve.store.misses")),
        "serve.cache.lu_hit_ratio": _ratio(
            _delta(after, before, "cache.lu-cache.hits"),
            _delta(after, before, "cache.lu-cache.misses")),
        "serve.cache.compiled_hit_ratio": _ratio(
            _delta(after, before, "cache.compiled-replay.hits"),
            _delta(after, before, "cache.compiled-replay.misses")),
        "serve.rejected": _delta(after, before, "serve.rejected"),
        "serve.worker.timeouts": _delta(after, before, "serve.worker.timeouts"),
        "serve.worker.crashes": _delta(after, before, "serve.worker.crashes"),
        # These layers are read from the client's records and the service's
        # own /metrics, which every run collects: nothing is wrapped.
        "perf.trace_overhead_frac": 0.0,
    })
    metrics.update(layer)
    return {
        "setup_s": setup_s,
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "checks": checks,
        "samples": {"requests": len(timed)},
        "tails": {"step_ms_p95": layer["serve.client.latency_ms_p95"],
                  "step_ms_p99": layer["serve.client.latency_ms_p99"]},
    }
