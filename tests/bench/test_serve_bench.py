"""Tests for the ``python -m repro.bench serve`` acceptance gate.

``_assemble_report`` turns one load run plus the service's ``/metrics``
document into a report whose ``failures`` list gates the exit code; these
tests feed it synthetic documents, so no service boots.
"""

import copy

import pytest

from repro.bench.serve_bench import _assemble_report

CLIENTS, ROUNDS = 4, 2
EXPECTED = CLIENTS * (ROUNDS + 2)


def _counter(value):
    return {"kind": "counter", "value": value}


HEALTHY_METRICS = {
    "metrics": {
        "serve.coalesce.batches": _counter(2),
        "serve.coalesce.requests": _counter(8),
        "cache.compiled-replay.hits": _counter(3),
        "cache.compiled-replay.misses": _counter(1),
        "cache.lu-cache.hits": _counter(5),
        "cache.lu-cache.misses": _counter(2),
    },
    "latency": {"p50_s": 0.02, "p95_s": 0.3, "p99_s": 0.5, "count": EXPECTED},
    "store": {"hits": CLIENTS, "misses": EXPECTED - CLIENTS},
    "pool": {},
}


def _healthy_run():
    store_status = (
        [("solve", "miss")] * CLIENTS
        + [("evaluate", "")] * (CLIENTS * ROUNDS)
        + [("replay", "hit")] * CLIENTS
    )
    return {
        "wall": 2.0,
        "n_ok": EXPECTED,
        "store_status": store_status,
        "metrics_doc": copy.deepcopy(HEALTHY_METRICS),
    }


def _drop_one(run):
    run["n_ok"] -= 1


def _replay_miss(run):
    run["store_status"][-1] = ("replay", "miss")


def _no_coalescing(run):
    run["metrics_doc"]["metrics"]["serve.coalesce.requests"] = _counter(2)


def _no_hits(cache):
    def mutate(run):
        run["metrics_doc"]["metrics"][f"cache.{cache}.hits"] = _counter(0)
    return mutate


def _latency(p50, p95, p99):
    def mutate(run):
        run["metrics_doc"]["latency"].update(p50_s=p50, p95_s=p95, p99_s=p99)
    return mutate


def _zero_wall(run):
    run["wall"] = 0.0


@pytest.mark.parametrize("mutate, expected", [
    (None, None),
    (_drop_one, "dropped requests"),
    (_replay_miss, "store idempotency"),
    (_no_coalescing, "no multi-RHS coalescing"),
    (_no_hits("compiled-replay"), "no cross-request compiled-replay cache hits"),
    (_no_hits("lu-cache"), "no cross-request lu-cache cache hits"),
    (_latency(0.02, float("nan"), 0.5), "latency p50/p95/p99"),
    (_latency(0.02, 0.6, 0.5), "latency p50/p95/p99"),
    (_zero_wall, "throughput_rps"),
], ids=[
    "healthy", "dropped-request", "replay-miss", "no-coalescing",
    "no-compiled-replay-hits", "no-lu-cache-hits", "latency-nan",
    "latency-not-monotone", "zero-throughput",
])
def test_gate_flags_exactly_its_own_failure(mutate, expected):
    run = _healthy_run()
    if mutate is not None:
        mutate(run)
    report = _assemble_report(
        CLIENTS, ROUNDS, run["wall"], run["n_ok"], [], run["store_status"],
        run["metrics_doc"],
    )
    if expected is None:
        assert report["failures"] == []
        assert report["throughput_rps"] == EXPECTED / 2.0
    else:
        assert len(report["failures"]) == 1, report["failures"]
        assert report["failures"][0].startswith(expected)
