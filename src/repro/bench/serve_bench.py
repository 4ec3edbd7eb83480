"""Load generator for the control service: ``python -m repro.bench serve``.

Boots a :class:`~repro.serve.runner.ServiceThread` (warm worker pool +
result store + coalescer), drives ``--clients`` concurrent blocking
clients through a scripted request mix, and checks the serving layer's
acceptance contract end-to-end:

1. **parity** — every served ``final_cost``/``cost`` must match a direct
   in-process run of the same ``control.*`` oracles (same
   :func:`repro.serve.worker.execute_job` path, no HTTP, no pool);
2. **zero dropped requests** — every client round-trip must come back
   ``200`` (the queue limit is sized so honest load never hits 429);
3. **store idempotency** — re-submitting a byte-identical request after
   the first completion is served from the disk store (``X-Repro-Store:
   hit``);
4. **cross-request warm caches** — the workers' compiled-replay and
   LU-factorisation counters must show hits, proving requests shared
   compiled programs and factorisations instead of rebuilding them;
5. **coalescing** — concurrent compatible evaluations must ride at
   least one multi-RHS batch (``serve.coalesce.requests`` strictly
   greater than ``serve.coalesce.batches``);
6. **a sane report** — ``throughput_rps`` is finite and positive, and
   the service's p50/p95/p99 latencies are finite and monotone.

The scripted mix has three phases, with all clients synchronised on a
barrier between phases:

- *solve storm*: each client posts its group's solve request (two DP
  iteration variants sharing one compiled program, plus a DAL variant
  sharing the same factorisation);
- *evaluate burst*: each client posts ``--rounds`` distinct evaluation
  requests back-to-back — concurrent bursts coalesce into multi-RHS
  solves;
- *replay*: each client re-posts its phase-1 solve byte-identically —
  these must be store hits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["main", "run_load"]

#: Phase-1/3 solve mix.  Variants 0 and 1 share the compiled-DP-program
#: cache key (same family/method/shape/target, different iteration
#: budget → different digest); variant 2 shares the factorisation.
SOLVE_VARIANTS: Tuple[Dict[str, Any], ...] = (
    {"family": "laplace", "kind": "solve", "method": "dp",
     "iterations": 6, "lr": 1e-2},
    {"family": "laplace", "kind": "solve", "method": "dp",
     "iterations": 10, "lr": 1e-2},
    {"family": "laplace", "kind": "solve", "method": "dal",
     "iterations": 6, "lr": 1e-2},
)

#: Parity tolerance: service and reference run the same deterministic
#: code path on the same machine, so agreement is essentially bitwise;
#: the epsilon only absorbs float repr round-trips through JSON.
PARITY_RTOL = 1e-9


def _evaluate_request(client: int, rnd: int, n_control: int) -> Dict[str, Any]:
    """A deterministic, per-(client, round) distinct evaluation request."""
    control = [
        0.05 * (((client + 1) * (j + 3)) % 7 - 3) + 0.01 * rnd
        for j in range(n_control)
    ]
    return {"family": "laplace", "kind": "evaluate", "control": control}


def _canonical(request: Dict[str, Any]) -> str:
    return json.dumps(request, sort_keys=True)


def _client_script(cid: int, addr: Tuple[str, int], timeout: float,
                   rounds: int, n_control: int, barrier: threading.Barrier,
                   record, errors: List[str]) -> None:
    """One client thread: solve storm -> evaluate burst -> replay."""
    from repro.serve.client import ServeClient

    client = ServeClient(addr[0], addr[1], timeout=timeout)
    solve = SOLVE_VARIANTS[cid % len(SOLVE_VARIANTS)]

    def post(phase: str, request: Dict[str, Any]) -> None:
        try:
            doc = client.control(**request)
            record(phase, request, doc)
        except Exception as exc:  # noqa: BLE001 — tallied, gate fails on any
            errors.append(f"client {cid} {phase}: {type(exc).__name__}: {exc}")

    barrier.wait()
    post("solve", solve)
    barrier.wait()
    for rnd in range(rounds):
        post("evaluate", _evaluate_request(cid, rnd, n_control))
    barrier.wait()
    post("replay", solve)


def run_load(
    clients: int = 8,
    rounds: int = 3,
    workers: int = 2,
    timeout: float = 120.0,
    store_dir: Optional[str] = None,
    root_seed: int = 0,
) -> Dict[str, Any]:
    """Drive the scripted load; returns the full report (see module doc).

    The report's ``"failures"`` list is empty iff every acceptance gate
    passed; ``main`` turns a non-empty list into a nonzero exit.
    """
    from repro.serve.runner import ServiceThread
    from repro.serve.service import ServeConfig
    from repro.serve.protocol import parse_request
    from repro.serve.worker import WorkerState
    from repro.serve.client import ServeClient

    if clients < 1:
        raise ValueError("need at least one client")

    # The parity reference shares nothing with the service but code.
    reference = WorkerState(root_seed)
    n_control = reference.problem(
        parse_request({"family": "laplace", "method": "dp"})).n_control

    config = ServeConfig(
        workers=workers,
        queue_limit=max(64, 4 * clients),
        request_timeout_s=timeout,
        store_dir=store_dir,
        root_seed=root_seed,
    )

    ctx = None
    if config.store_dir is None:
        ctx = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        config = dataclasses.replace(config, store_dir=ctx.name)

    lock = threading.Lock()
    responses: Dict[str, Dict[str, Any]] = {}
    store_status: List[Tuple[str, str]] = []
    errors: List[str] = []
    n_ok = 0

    def record(phase: str, request: Dict[str, Any], doc: Dict[str, Any]) -> None:
        nonlocal n_ok
        with lock:
            n_ok += 1
            responses[_canonical(request)] = doc
            store_status.append((phase, doc.get("store", "")))

    try:
        with ServiceThread(config) as svc:
            addr = (svc.host, svc.port)
            barrier = threading.Barrier(clients)
            threads = [
                threading.Thread(
                    target=_client_script, name=f"serve-client-{i}",
                    args=(i, addr, timeout, rounds, n_control, barrier,
                          record, errors),
                )
                for i in range(clients)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
            metrics_doc = ServeClient(*addr, timeout=timeout).metrics()
    finally:
        if ctx is not None:
            ctx.cleanup()

    report = _assemble_report(
        clients, rounds, wall, n_ok, errors, store_status, metrics_doc,
    )
    report["parity"] = _check_parity(reference, responses, report["failures"])
    return report


def _metric_value(metrics: Dict[str, Any], name: str) -> float:
    spec = metrics.get(name) or {}
    return float(spec.get("value", 0.0))


def _assemble_report(clients, rounds, wall, n_ok, errors, store_status,
                     metrics_doc) -> Dict[str, Any]:
    metrics = metrics_doc.get("metrics", {})
    latency = metrics_doc.get("latency", {})
    store = metrics_doc.get("store", {})
    expected = clients * (rounds + 2)
    batches = _metric_value(metrics, "serve.coalesce.batches")
    coalesced = _metric_value(metrics, "serve.coalesce.requests")
    cache = {
        name: {
            "hits": _metric_value(metrics, f"cache.{name}.hits"),
            "misses": _metric_value(metrics, f"cache.{name}.misses"),
        }
        for name in ("compiled-replay", "lu-cache")
    }

    failures: List[str] = list(errors)
    if n_ok != expected:
        failures.append(
            f"dropped requests: {n_ok}/{expected} round-trips succeeded"
        )
    replay_hits = [s for phase, s in store_status if phase == "replay"]
    if replay_hits and not all(s == "hit" for s in replay_hits):
        failures.append(
            f"store idempotency: replay phase statuses {replay_hits} "
            "(expected all 'hit')"
        )
    if coalesced <= batches or batches < 1:
        failures.append(
            f"no multi-RHS coalescing observed "
            f"(batches={batches:g}, coalesced requests={coalesced:g})"
        )
    for name, hm in cache.items():
        if hm["hits"] <= 0:
            failures.append(f"no cross-request {name} cache hits")
    throughput = n_ok / wall if wall > 0 else 0.0
    if not (math.isfinite(throughput) and throughput > 0):
        failures.append(f"throughput_rps is not finite and positive: "
                        f"{throughput!r}")
    triple = [latency.get(f"p{q}_s") for q in (50, 95, 99)]
    if not (all(isinstance(v, (int, float)) and math.isfinite(v)
                for v in triple) and triple[0] <= triple[1] <= triple[2]):
        failures.append(f"latency p50/p95/p99 {triple} are not finite "
                        "and monotone")

    return {
        "clients": clients,
        "rounds": rounds,
        "requests_expected": expected,
        "requests_ok": n_ok,
        "wall_time_s": wall,
        "throughput_rps": throughput,
        "latency": latency,
        "store": store,
        "coalesce": {
            "batches": batches,
            "requests": coalesced,
            "mean_width": coalesced / batches if batches else 0.0,
        },
        "cache": cache,
        "pool": metrics_doc.get("pool", {}),
        "failures": failures,
    }


def _check_parity(reference, responses: Dict[str, Dict[str, Any]],
                  failures: List[str], n_evaluate: int = 4) -> Dict[str, Any]:
    """Re-run a sample of served requests in-process; compare costs."""
    from repro.serve.protocol import parse_request, request_digest
    from repro.serve.worker import execute_job

    checked = 0
    max_rel = 0.0
    sample: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    seen_eval = 0
    for blob, doc in sorted(responses.items()):
        request = json.loads(blob)
        if request.get("kind") == "evaluate":
            if seen_eval >= n_evaluate:
                continue
            seen_eval += 1
        sample.append((request, doc))

    for request, doc in sample:
        parsed = parse_request(request)
        if parsed.kind == "solve":
            job = {"op": "solve", "request": parsed,
                   "digest": request_digest(parsed)}
            reply = execute_job(reference, job)
            ref = reply["result"]["final_cost"] if reply.get("ok") else None
            got = doc.get("result", {}).get("final_cost")
        else:
            reply = execute_job(reference, {"op": "evaluate",
                                            "requests": [parsed]})
            ref = (reply["results"][0].get("cost")
                   if reply.get("ok") else None)
            got = doc.get("result", {}).get("cost")
        if ref is None or got is None:
            failures.append(f"parity: reference or served cost missing for "
                            f"{request.get('kind')} request")
            continue
        checked += 1
        rel = abs(got - ref) / max(abs(ref), 1e-300)
        max_rel = max(max_rel, rel)
        if not math.isclose(got, ref, rel_tol=PARITY_RTOL, abs_tol=1e-12):
            failures.append(
                f"parity: served {request.get('kind')} cost {got!r} != "
                f"direct {ref!r} (rel err {rel:.3e})"
            )
    return {"checked": checked, "max_rel_err": max_rel}


def _print_report(report: Dict[str, Any]) -> None:
    lat = report["latency"]
    print(
        f"serve bench: {report['requests_ok']}/{report['requests_expected']} "
        f"requests ok from {report['clients']} concurrent clients "
        f"in {report['wall_time_s']:.2f}s "
        f"({report['throughput_rps']:.1f} req/s)"
    )
    print(
        f"  latency: p50 {lat.get('p50_s', 0):.3f}s  "
        f"p95 {lat.get('p95_s', 0):.3f}s  p99 {lat.get('p99_s', 0):.3f}s  "
        f"(n={lat.get('count', 0)})"
    )
    print(
        f"  store: {report['store'].get('hits', 0)} hits / "
        f"{report['store'].get('misses', 0)} misses"
    )
    co = report["coalesce"]
    print(
        f"  coalesce: {co['requests']:g} evaluations in {co['batches']:g} "
        f"batches (mean width {co['mean_width']:.2f})"
    )
    for name, hm in report["cache"].items():
        print(f"  cache {name}: {hm['hits']:g} hits / {hm['misses']:g} misses")
    par = report["parity"]
    print(
        f"  parity: {par['checked']} requests re-run directly, "
        f"max rel err {par['max_rel_err']:.3e}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench serve",
        description="Load-test the control service and gate its contract.",
    )
    ap.add_argument("--clients", type=int, default=8,
                    help="concurrent clients (default 8)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="evaluate requests per client (default 3)")
    ap.add_argument("--workers", type=int, default=2,
                    help="warm service workers (default 2)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per-request client/worker deadline in seconds")
    ap.add_argument("--store-dir", default=None, metavar="DIR",
                    help="result-store directory (default: scratch temp)")
    ap.add_argument("--report", default=None, metavar="PATH",
                    help="also write the full JSON report here")
    args = ap.parse_args(argv)

    report = run_load(
        clients=args.clients, rounds=args.rounds, workers=args.workers,
        timeout=args.timeout, store_dir=args.store_dir,
    )
    _print_report(report)

    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
        print(f"  report -> {args.report}")

    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
