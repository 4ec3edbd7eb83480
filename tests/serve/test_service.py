"""End-to-end service tests over real HTTP: happy paths and failure modes."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.serve.client import ServeClient, ServeHTTPError
from repro.serve.runner import ServiceThread
from repro.serve.service import ServeConfig

SOLVE = {"family": "laplace", "kind": "solve", "method": "dp",
         "iterations": 4}

#: A solve slow enough (several seconds) to still be in flight when a
#: test kills its worker, times it out, or disconnects its client.
SLOW_SOLVE = {"family": "laplace", "kind": "solve", "method": "dal",
              "iterations": 2000, "nx": 40}

#: A solve that keeps a warm default-shape worker busy for about a second.
HOLD_SOLVE = {"family": "laplace", "kind": "solve", "method": "dal",
              "iterations": 2000}


def _evaluate(values):
    return {"family": "laplace", "kind": "evaluate", "control": list(values)}


def _raw_request(service, data: bytes):
    """Send raw bytes, read the reply to EOF; (status, parsed JSON body)."""
    with socket.create_connection((service.host, service.port),
                                  timeout=10.0) as sock:
        sock.sendall(data)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head, "empty reply"
    return int(head.split()[1]), json.loads(body.decode("utf-8"))


def _strict_json(body: bytes):
    """Decode a reply body; a NaN or infinity constant raises."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(body.decode("utf-8"), parse_constant=refuse)


def _wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# Shared happy-path service (booting a pool is the expensive part)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = ServeConfig(
        workers=2,
        store_dir=str(tmp_path_factory.mktemp("serve-store")),
    )
    with ServiceThread(config) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServeClient(service.host, service.port, timeout=120.0)


@pytest.fixture(scope="module")
def n_control():
    from repro.serve.protocol import parse_request
    from repro.serve.worker import WorkerState

    return WorkerState(0).problem(parse_request(SOLVE)).n_control


def test_healthz(client):
    doc = client.healthz()
    assert doc["status"] == "ok"
    assert doc["workers"] == 2


def test_solve_round_trip_matches_direct_execution(client):
    doc = client.control(**SOLVE)
    from repro.serve.protocol import parse_request, request_digest
    from repro.serve.worker import WorkerState, execute_job

    request = parse_request(SOLVE)
    reply = execute_job(WorkerState(0), {
        "op": "solve", "request": request,
        "digest": request_digest(request),
    })
    assert doc["result"]["final_cost"] == pytest.approx(
        reply["result"]["final_cost"], rel=1e-9
    )
    assert doc["digest"] == request_digest(request)


def test_resubmit_is_bitwise_store_hit(client):
    request = dict(SOLVE, iterations=5)
    status1, headers1, body1 = client.post_control_raw(request)
    status2, headers2, body2 = client.post_control_raw(request)
    assert status1 == status2 == 200
    assert headers1["x-repro-store"] == "miss"
    assert headers2["x-repro-store"] == "hit"
    assert body1 == body2  # byte-identical, straight from disk


def test_equivalent_spellings_share_one_digest(client):
    # Defaults resolve before digesting: spelling them out is the same
    # request, so the second submission must be a store hit.
    implicit = {"family": "laplace", "kind": "solve", "method": "dp",
                "iterations": 7}
    explicit = dict(implicit, nx=26, seed=0, lr=1e-2)
    _, h1, b1 = client.post_control_raw(implicit)
    _, h2, b2 = client.post_control_raw(explicit)
    assert h2["x-repro-store"] == "hit"
    assert b1 == b2


def test_invalid_request_is_typed_400(client):
    with pytest.raises(ServeHTTPError) as err:
        client.control(family="laplace", kind="solve", method="sgd")
    assert err.value.status == 400
    assert err.value.error["type"] == "RequestError"


def test_worker_level_reject_is_typed_400(client):
    with pytest.raises(ServeHTTPError) as err:
        client.control(**dict(SOLVE, target=[0.5, 0.5]))
    assert err.value.status == 400
    assert "target" in err.value.error["message"]


@pytest.mark.parametrize("family, bad, good", [
    ("laplace", 1e300, 0.1),  # the cost overflows to inf
    ("ns", 1e160, 0.3),       # the projection forward diverges
], ids=["laplace-infinite-cost", "ns-diverging-forward"])
def test_unpriceable_evaluate_is_typed_400_beside_a_good_one(client, family,
                                                            bad, good):
    from repro.serve.protocol import parse_request
    from repro.serve.worker import WorkerState

    n = WorkerState(0).problem(parse_request(
        {"family": family, "kind": "evaluate", "control": [0.0]}
    )).n_control
    requests = [{"family": family, "kind": "evaluate", "control": [v] * n}
                for v in (bad, good)]
    replies = [None, None]

    def post(i):
        replies[i] = client.post_control_raw(requests[i])

    threads = [threading.Thread(target=post, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads)
    (bad_status, _, bad_body), (good_status, _, good_body) = replies
    assert bad_status == 400
    err = _strict_json(bad_body)["error"]
    assert err["type"] == "RequestError"
    assert "'control'" in err["message"]
    assert good_status == 200
    assert _strict_json(good_body)["result"]["cost"] >= 0.0
    # Not stored: a re-submit is priced (and refused) again.
    assert client.post_control_raw(requests[0])[0] == 400


def test_non_finite_result_is_typed_500_and_not_stored(tmp_path):
    # A worker result holding NaN must not go out as a 200 body of
    # non-standard JSON, nor land in the store.
    import asyncio

    from repro.serve.service import ControlService
    from repro.serve.store import ResultStore

    svc = ControlService(ServeConfig(store_dir=str(tmp_path)))

    async def nan_reply(job):
        return {"ok": True, "result": {
            "kind": "solve", "final_cost": float("nan"), "control": [0.0],
            "iterations": 4, "converged": None,
        }}

    svc._worker_call = nan_reply
    status, body, _ = asyncio.run(
        svc._process_control(json.dumps(SOLVE).encode("utf-8"))
    )
    svc.store.close()
    assert status == 500
    err = _strict_json(body)["error"]
    assert err["type"] == "InternalError"
    assert "non-finite" in err["message"]
    store = ResultStore(str(tmp_path))
    assert len(store) == 0
    store.close()


@pytest.mark.parametrize("header, message", [
    (b"Content-Length: abc", "Content-Length"),
    (b"Content-Length: -5", "Content-Length"),
    # longer than the service's stream limit (asyncio's 64 KiB default)
    (b"X-Padding: " + b"a" * (1 << 17), "request head"),
], ids=["non-integer-length", "negative-length", "overlong-header"])
def test_malformed_head_is_typed_400(service, client, header, message):
    status, doc = _raw_request(
        service, b"POST /v1/control HTTP/1.1\r\nHost: x\r\n"
        + header + b"\r\n\r\n{}"
    )
    assert status == 400
    assert doc["error"]["type"] == "RequestError"
    assert message in doc["error"]["message"]
    assert client.healthz()["status"] == "ok"  # and the service lives on


def test_unknown_route_404_and_wrong_method_405(client):
    status, _, _ = client.request_raw("GET", "/v2/nothing")
    assert status == 404
    status, _, _ = client.request_raw("GET", "/v1/control")
    assert status == 405


def test_evaluates_behind_busy_workers_each_get_their_own_cost(service, client,
                                                               n_control):
    # Hold both workers with a solve, then fire four evaluates together:
    # each waits for a worker in the one FIFO queue and runs as its own
    # job, with the cost a fresh worker computes for it.
    from repro.serve.protocol import parse_request
    from repro.serve.worker import WorkerState, execute_job

    queue = service.service._worker_queue
    holders = [
        threading.Thread(target=client.control, kwargs=dict(HOLD_SOLVE, lr=lr))
        for lr in (1e-2, 2e-2)
    ]
    for t in holders:
        t.start()
    assert _wait_until(lambda: queue.qsize() == 0, timeout=10.0)

    requests = [_evaluate([0.02 * (i + 1)] * n_control) for i in range(4)]
    replies = [None] * 4
    barrier = threading.Barrier(4)

    def post(i):
        barrier.wait()
        replies[i] = client.post_control_raw(requests[i])

    threads = [threading.Thread(target=post, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads + holders:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads + holders)
    assert [status for status, _, _ in replies] == [200] * 4

    reference = WorkerState(0)
    for request, (_, _, body) in zip(requests, replies):
        direct = execute_job(reference, {
            "op": "evaluate", "requests": [parse_request(request)],
        })["results"][0]["cost"]
        assert json.loads(body.decode("utf-8"))["result"]["cost"] == direct
    metrics = client.metrics()["metrics"]
    assert not [name for name in metrics if name.startswith("serve.coalesce.")]
    assert queue.qsize() == 2  # every worker is back in rotation


def test_more_clients_than_workers_all_served_stored_and_exact(client,
                                                               n_control):
    # Eight clients against two workers: each posts a solve, two distinct
    # evaluates, then its solve again.
    from repro.serve.protocol import parse_request, request_digest
    from repro.serve.worker import WorkerState, execute_job

    n_clients = 8
    replies = [None] * n_clients
    barrier = threading.Barrier(n_clients)

    def script(cid):
        solve = {"family": "laplace", "kind": "solve",
                 "method": ("dp", "dal")[cid % 2], "iterations": 3,
                 "lr": 1e-2 * (1.0 + 0.1 * cid)}
        evaluates = [_evaluate([0.01 * (cid + 1) + 0.001 * (j % 5) + 0.005 * k
                                for j in range(n_control)])
                     for k in range(2)]
        barrier.wait()
        replies[cid] = [(r, client.post_control_raw(r))
                        for r in [solve, *evaluates, solve]]

    threads = [threading.Thread(target=script, args=(cid,))
               for cid in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert all(r is not None for r in replies)

    reference = WorkerState(0)
    for script_replies in replies:
        assert [status for _, (status, _, _) in script_replies] == [200] * 4
        _, _, first = script_replies[0][1]
        _, headers, again = script_replies[-1][1]
        assert headers["x-repro-store"] == "hit"
        assert again == first
        for request, (_, _, body) in script_replies[:-1]:
            parsed = parse_request(request)
            result = json.loads(body.decode("utf-8"))["result"]
            if parsed.kind == "solve":
                served = result["final_cost"]
                direct = execute_job(reference, {
                    "op": "solve", "request": parsed,
                    "digest": request_digest(parsed),
                })["result"]["final_cost"]
            else:
                served = result["cost"]
                direct = execute_job(reference, {
                    "op": "evaluate", "requests": [parsed],
                })["results"][0]["cost"]
            assert served == pytest.approx(direct, rel=1e-9)


def test_metrics_exposes_cache_and_latency(client):
    doc = client.metrics()
    lat = doc["latency"]
    assert lat["count"] > 0
    assert lat["p50_s"] <= lat["p95_s"] <= lat["p99_s"]
    metrics = doc["metrics"]
    # Cross-request warm caches: the workers have replayed compiled
    # programs and reused factorisations across the tests above.
    assert metrics["cache.compiled-replay.hits"]["value"] > 0
    assert metrics["cache.lu-cache.hits"]["value"] > 0
    assert doc["store"]["hits"] >= 1


# ---------------------------------------------------------------------------
# Failure modes (each gets its own small service)
# ---------------------------------------------------------------------------
def test_backpressure_returns_429():
    # The deadline cuts the occupant short (a typed 504) so the test does
    # not wait the full SLOW_SOLVE.
    config = ServeConfig(workers=1, queue_limit=1, request_timeout_s=2.0)
    with ServiceThread(config) as svc:
        client = ServeClient(svc.host, svc.port, timeout=30.0)
        first = {}

        def occupant():
            try:
                first["doc"] = client.control(**SLOW_SOLVE)
            except ServeHTTPError as exc:
                first["doc"] = exc.error

        t = threading.Thread(target=occupant)
        t.start()
        # While the occupant holds the only admission slot the queue is
        # full; a second request must bounce with 429 immediately.
        assert _wait_until(
            lambda: svc.service._inflight >= 1, timeout=5.0
        )
        with pytest.raises(ServeHTTPError) as err:
            client.control(**SOLVE)
        assert err.value.status == 429
        assert err.value.error["type"] == "Backpressure"
        t.join()
        # The occupant itself was answered, not dropped.
        assert first["doc"]["type"] == "RequestTimeout"
        rejected = client.metrics()["metrics"]["serve.rejected"]["value"]
        assert rejected >= 1


def test_worker_timeout_is_504_and_worker_is_replaced():
    # The deadline must sit between a cold default solve (~0.4s: problem
    # build + compile + 4 iterations) and SLOW_SOLVE (~8s).
    config = ServeConfig(workers=1, request_timeout_s=2.0)
    with ServiceThread(config) as svc:
        client = ServeClient(svc.host, svc.port, timeout=30.0)
        with pytest.raises(ServeHTTPError) as err:
            client.control(**SLOW_SOLVE)
        assert err.value.status == 504
        assert err.value.error["type"] == "RequestTimeout"
        doc = client.metrics()
        assert doc["pool"]["replacements"] == 1
        assert doc["metrics"]["serve.worker.timeouts"]["value"] == 1
        # The replacement worker serves the next request normally.
        assert client.control(**SOLVE)["result"]["final_cost"] >= 0.0


def test_cache_totals_never_fall_when_a_worker_is_replaced():
    # The served cache.* gauges sum every worker's last cumulative
    # report; a retired worker's hits must stay counted.
    config = ServeConfig(workers=2, request_timeout_s=2.0)
    with ServiceThread(config) as svc:
        client = ServeClient(svc.host, svc.port, timeout=30.0)

        def cache_totals():
            return {name: m["value"]
                    for name, m in client.metrics()["metrics"].items()
                    if name.startswith("cache.")}

        def solve_pair(iterations):
            pair = [threading.Thread(target=client.control, kwargs=dict(
                SOLVE, iterations=iterations, lr=lr)) for lr in (1e-2, 2e-2)]
            for t in pair:
                t.start()
            for t in pair:
                t.join(timeout=30.0)

        for rnd in range(3):
            solve_pair(3 + rnd)
        seen = [cache_totals()]
        assert seen[0]["cache.compiled-replay.hits"] > 0
        with pytest.raises(ServeHTTPError) as err:
            client.control(**SLOW_SOLVE)
        assert err.value.status == 504
        seen.append(cache_totals())
        assert client.metrics()["pool"]["replacements"] == 1
        solve_pair(6)  # the replacement reports its own (small) totals
        seen.append(cache_totals())
    for earlier, later in zip(seen, seen[1:]):
        for name, value in earlier.items():
            assert later[name] >= value, (name, earlier, later)


def test_worker_crash_is_typed_500_and_worker_is_replaced():
    config = ServeConfig(workers=1)
    with ServiceThread(config) as svc:
        client = ServeClient(svc.host, svc.port, timeout=60.0)
        caught = {}

        def slow():
            try:
                caught["doc"] = client.control(**SLOW_SOLVE)
            except ServeHTTPError as exc:
                caught["status"] = exc.status
                caught["error"] = exc.error

        t = threading.Thread(target=slow)
        t.start()
        assert _wait_until(lambda: svc.service._inflight >= 1, timeout=5.0)
        time.sleep(0.2)  # let the job reach the worker
        svc.service.pool.workers[0].process.kill()
        t.join(timeout=30.0)
        assert caught.get("status") == 500
        assert caught["error"]["type"] == "WorkerCrashed"
        doc = client.metrics()
        assert doc["pool"]["replacements"] == 1
        assert doc["metrics"]["serve.worker.crashes"]["value"] == 1
        assert client.control(**SOLVE)["result"]["final_cost"] >= 0.0


def test_client_disconnect_frees_the_slot():
    config = ServeConfig(workers=1, queue_limit=4)
    with ServiceThread(config) as svc:
        body = json.dumps(SLOW_SOLVE).encode("utf-8")
        head = (
            f"POST /v1/control HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        sock = socket.create_connection((svc.host, svc.port), timeout=10.0)
        sock.sendall(head + body)
        assert _wait_until(lambda: svc.service._inflight >= 1, timeout=5.0)
        sock.close()  # walk away mid-request

        client = ServeClient(svc.host, svc.port, timeout=60.0)
        assert _wait_until(
            lambda: client.metrics()["metrics"].get(
                "serve.client.disconnects", {}
            ).get("value", 0.0) >= 1,
            timeout=10.0,
        )
        # The admission slot came back and the worker returns to
        # rotation once its in-flight job settles; a new request works.
        assert _wait_until(lambda: svc.service._inflight == 0, timeout=10.0)
        assert client.control(**SOLVE)["result"]["final_cost"] >= 0.0


def test_restart_replays_a_stored_solve_without_a_worker(tmp_path):
    config = ServeConfig(workers=1, store_dir=str(tmp_path))
    with ServiceThread(config) as svc:
        client = ServeClient(svc.host, svc.port, timeout=60.0)
        status, headers, first = client.post_control_raw(SOLVE)
        assert status == 200 and headers["x-repro-store"] == "miss"

    with ServiceThread(config) as svc:
        client = ServeClient(svc.host, svc.port, timeout=60.0)
        # Warm the worker so its cache counters are published.
        client.control(**dict(SOLVE, iterations=3))

        def counters():
            metrics = client.metrics()["metrics"]
            return {name: metrics.get(name, {}).get("value", 0.0) for name in (
                "cache.compiled-replay.hits", "cache.compiled-replay.misses",
                "cache.lu-cache.hits", "cache.lu-cache.misses",
                "serve.store.hits",
            )}

        before = counters()
        status, headers, replay = client.post_control_raw(SOLVE)
        after = counters()
    assert status == 200 and headers["x-repro-store"] == "hit"
    assert replay == first
    assert after.pop("serve.store.hits") == before.pop("serve.store.hits") + 1
    assert after == before  # no worker job ran for the replay


def test_round_trips_start_no_threads(tmp_path, n_control):
    config = ServeConfig(workers=2, store_dir=str(tmp_path))
    with ServiceThread(config) as svc:
        client = ServeClient(svc.host, svc.port, timeout=60.0)
        threads_before = threading.active_count()
        requests = [dict(SOLVE, iterations=2 + i) for i in range(2)]
        requests += [_evaluate([0.01 * (i + 1)] * n_control)
                     for i in range(6)]
        burst = [threading.Thread(target=client.control, kwargs=r)
                 for r in requests]
        for t in burst:
            t.start()
        for t in burst:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in burst)
        assert threading.active_count() == threads_before
        assert client.metrics()["metrics"]["serve.requests.ok"]["value"] == 8


def test_cli_rejects_unusable_sizes():
    # Each of these booted (or died in a traceback) instead of being a
    # usage error; the subprocess timeout turns a boot into a failure.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    for flag, value in (("--workers", "0"), ("--queue-limit", "0"),
                        ("--timeout", "0"), ("--timeout", "-1")):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", flag, value],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2, (flag, value, proc.stderr)
        assert f"argument {flag}" in proc.stderr
