"""Tests for the metrics registry and the cache-counter migration."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.obs.metrics import (
    BYTE_BUCKETS,
    Counter,
    FLOP_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    TIME_BUCKETS,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.recorder import recording
from repro.obs.schema import CacheRecord


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("n.events")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.snapshot() == {"kind": "counter", "value": 3.5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("n").inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge("depth")
        g.set(7)
        g.inc(-2)
        assert g.value == 5.0
        assert g.snapshot()["kind"] == "gauge"

    def test_histogram_bucketing(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 50.0, 5000.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]  # last slot = overflow
        assert h.count == 5
        assert h.sum == pytest.approx(5060.5)
        assert h.mean == pytest.approx(5060.5 / 5)

    def test_histogram_boundary_goes_low(self):
        h = Histogram("edge", buckets=(1.0, 2.0))
        h.observe(1.0)  # <= bound lands in that bucket
        assert h.counts == [1, 0, 0]

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match=">= 1 bucket"):
            Histogram("h", buckets=())

    def test_default_bucket_constants_are_valid(self):
        for bounds in (TIME_BUCKETS, FLOP_BUCKETS, BYTE_BUCKETS):
            assert all(a < b for a, b in zip(bounds, bounds[1:]))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("x")
        with pytest.raises(TypeError, match="not histogram"):
            reg.histogram("x")

    def test_iteration_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert [m.name for m in reg] == ["a", "b"]

    def test_snapshot_is_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        json.dumps(snap)
        assert snap["c"]["value"] == 1.0
        assert snap["h"]["counts"] == [0, 1, 0]

    def test_to_text_prometheus_flavour(self):
        reg = MetricsRegistry()
        reg.counter("events", help="number of events").inc(3)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = reg.to_text()
        assert "# HELP events number of events" in text
        assert "# TYPE events counter" in text
        assert "events 3" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 0' in text
        assert "lat_count 1" in text

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.clear()
        assert len(reg) == 0


class TestCacheBridge:
    def test_record_cache_round_trips_as_cache_records(self):
        reg = MetricsRegistry()
        reg.record_cache("lu-cache", hits=10, misses=2)
        reg.record_cache("compiled-replay", hits=5, misses=1)
        records = reg.cache_records()
        assert records == [
            CacheRecord(cache="compiled-replay", hits=5, misses=1),
            CacheRecord(cache="lu-cache", hits=10, misses=2),
        ]

    def test_record_cache_overwrites(self):
        reg = MetricsRegistry()
        reg.record_cache("lu-cache", hits=1, misses=1)
        reg.record_cache("lu-cache", hits=9, misses=1)
        (rec,) = reg.cache_records()
        assert rec.hits == 9


class TestScoping:
    def test_use_registry_swaps_and_restores(self):
        outer = get_registry()
        with use_registry() as reg:
            assert get_registry() is reg
            assert get_registry() is not outer
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        prev = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            assert set_registry(prev) is fresh


class TestCounterMigrationEquivalence:
    """The registry counters must agree with the legacy per-object ones."""

    def test_dense_lu_solver(self):
        from repro.autodiff.linalg import LUSolver

        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        with use_registry() as reg:
            lus = LUSolver(A)
            for _ in range(4):
                lus.solve_numpy(rng.standard_normal(8))
            assert reg.counter("linalg.dense.factorizations").value == \
                lus.n_factorizations == 1
            assert reg.counter("linalg.dense.solves").value == \
                lus.n_solves == 4

    def test_sparse_lu_solver(self):
        from repro.autodiff.sparse import SparseLUSolver

        rng = np.random.default_rng(1)
        A = sp.csr_matrix(np.diag(rng.uniform(1, 2, size=6)))
        with use_registry() as reg:
            s = SparseLUSolver(A)
            for _ in range(3):
                s.solve_numpy(rng.standard_normal(6))
            assert reg.counter("linalg.sparse.factorizations").value == \
                s.n_factorizations == 1
            assert reg.counter("linalg.sparse.solves").value == \
                s.n_solves == 3

    def test_compiled_replay_counters(self):
        from repro.autodiff import ops
        from repro.autodiff.compile import compiled_value_and_grad

        def f(c):
            return ops.sum_(ops.square(c))

        with use_registry() as reg:
            vg = compiled_value_and_grad(f)
            x = np.arange(5, dtype=np.float64)
            for _ in range(3):
                vg(x)
            info = vg.cache_info()
            assert reg.counter("compile.traces").value == info["traces"] == 1
            assert reg.counter("compile.replays").value == info["replays"] == 2

    def test_hooks_publish_registry_and_recorder_agree(self):
        from repro.obs.hooks import record_solver_cache

        class FakeSolver:
            n_factorizations = 2
            n_solves = 12

        with recording() as rec, use_registry() as reg:
            record_solver_cache(FakeSolver(), name="lu-cache")
            (from_registry,) = reg.cache_records()
        (from_trace,) = rec.caches
        assert from_trace.cache == from_registry.cache == "lu-cache"
        assert from_trace.hits == from_registry.hits == 10
        assert from_trace.misses == from_registry.misses == 2

    def test_hooks_publish_without_recorder(self):
        from repro.obs.hooks import record_solver_cache

        class FakeSolver:
            n_factorizations = 1
            n_solves = 5

        with use_registry() as reg:
            record_solver_cache(FakeSolver())
            (rec,) = reg.cache_records()
        assert (rec.hits, rec.misses) == (4, 1)


class TestRegistryInstallConcurrency:
    """set_registry/use_registry must be safe under concurrent installers."""

    def _restore_default(self):
        from repro.obs import metrics as m

        set_registry(m._DEFAULT)

    def test_set_registry_returns_previous_atomically(self):
        import threading

        base = get_registry()
        try:
            regs = [MetricsRegistry() for _ in range(64)]
            previous = []
            lock = threading.Lock()

            def install(r):
                prev = set_registry(r)
                with lock:
                    previous.append(prev)

            threads = [
                threading.Thread(target=install, args=(r,)) for r in regs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Atomic swaps form a chain: every registry is handed out as
            # "previous" exactly once, starting from the base registry.
            final = get_registry()
            seen = previous + [final]
            assert base in previous
            for r in regs:
                assert seen.count(r) == 1
        finally:
            self._restore_default()

    def test_use_registry_nests_and_restores(self):
        base = get_registry()
        with use_registry() as outer:
            assert get_registry() is outer
            with use_registry() as inner:
                assert get_registry() is inner
            assert get_registry() is outer
        assert get_registry() is base

    def test_stale_exit_does_not_clobber_newer_install(self):
        base = get_registry()
        try:
            cm = use_registry()
            scoped = cm.__enter__()
            assert get_registry() is scoped
            # A concurrent installer replaces the scoped registry before
            # the block exits (e.g. a task callback on another thread).
            newer = MetricsRegistry()
            set_registry(newer)
            cm.__exit__(None, None, None)
            # The stale block must NOT restore its predecessor over the
            # newer install.
            assert get_registry() is newer
        finally:
            self._restore_default()

    def test_exit_restores_when_still_active(self):
        base = get_registry()
        cm = use_registry()
        cm.__enter__()
        cm.__exit__(None, None, None)
        assert get_registry() is base


class TestMergeSnapshot:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        assert merged.counter("n").value == 7

    def test_gauges_sum_across_fresh_shards(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.record_cache("lu", hits=5, misses=1)
        b.record_cache("lu", hits=2, misses=2)
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        (rec,) = merged.cache_records()
        assert (rec.hits, rec.misses) == (7, 3)

    def test_histograms_merge_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("t", (1.0, 10.0)).observe(0.5)
        b.histogram("t", (1.0, 10.0)).observe(5.0)
        b.histogram("t", (1.0, 10.0)).observe(50.0)
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        h = merged.histogram("t", (1.0, 10.0))
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(55.5)

    def test_mismatched_histogram_buckets_rejected(self):
        a = MetricsRegistry()
        a.histogram("t", (1.0, 10.0)).observe(0.5)
        merged = MetricsRegistry()
        merged.histogram("t", (2.0, 20.0))
        with pytest.raises(ValueError, match="boundaries differ"):
            merged.merge_snapshot(a.snapshot())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            MetricsRegistry().merge_snapshot({"x": {"kind": "wat"}})

    def test_merge_into_nonempty_registry(self):
        shard = MetricsRegistry()
        shard.counter("n").inc(2)
        parent = MetricsRegistry()
        parent.counter("n").inc(1)
        parent.merge_snapshot(shard.snapshot())
        assert parent.counter("n").value == 3

    def test_empty_shard_is_a_noop(self):
        # A worker that recorded nothing ships an empty snapshot; merging
        # it must neither create instruments nor disturb existing ones.
        parent = MetricsRegistry()
        parent.counter("n").inc(5)
        parent.merge_snapshot(MetricsRegistry().snapshot())
        parent.merge_snapshot({})
        assert len(parent) == 1
        assert parent.counter("n").value == 5

    def test_merge_into_empty_registry_from_empty_shard(self):
        merged = MetricsRegistry()
        merged.merge_snapshot({})
        assert len(merged) == 0

    def test_counter_name_collision_across_kinds_rejected(self):
        # Shard says "n" is a counter, parent already has a gauge "n":
        # silent summation would corrupt semantics, so it must raise.
        shard = MetricsRegistry()
        shard.counter("n").inc(1)
        parent = MetricsRegistry()
        parent.gauge("n").set(10)
        with pytest.raises(TypeError, match="already registered as gauge"):
            parent.merge_snapshot(shard.snapshot())
        # And the symmetric direction: gauge shard into counter parent.
        gshard = MetricsRegistry()
        gshard.gauge("m").set(1)
        cparent = MetricsRegistry()
        cparent.counter("m").inc(1)
        with pytest.raises(TypeError, match="already registered as counter"):
            cparent.merge_snapshot(gshard.snapshot())

    def test_merge_after_merge_matches_single_pass(self):
        # Folding shards pairwise then folding the result again must give
        # the same totals as one flat pass — merge is associative.
        shards = []
        for i in range(1, 4):
            r = MetricsRegistry()
            r.counter("n").inc(i)
            r.histogram("t", (1.0, 10.0)).observe(float(i))
            shards.append(r.snapshot())

        flat = MetricsRegistry()
        for s in shards:
            flat.merge_snapshot(s)

        staged = MetricsRegistry()
        staged.merge_snapshot(shards[0])
        staged.merge_snapshot(shards[1])
        intermediate = staged.snapshot()
        nested = MetricsRegistry()
        nested.merge_snapshot(intermediate)
        nested.merge_snapshot(shards[2])

        assert nested.snapshot() == flat.snapshot()
        assert nested.counter("n").value == 6
        assert nested.histogram("t", (1.0, 10.0)).count == 3
