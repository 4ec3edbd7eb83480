"""Tests for absorbing worker Chrome traces into a profiler."""

import pytest

from repro.obs.profile import SpanProfiler


def _trace_doc(pid, name, dur=1000.0, cat="phase", meta=None):
    return {
        "traceEvents": [
            {"ph": "X", "pid": pid, "tid": pid, "name": name,
             "cat": cat, "ts": 0.0, "dur": dur},
        ],
        "displayTimeUnit": "ms",
        "metadata": meta or {"pid": pid},
    }


class TestProfilerAbsorb:
    def test_absorbed_events_appear_in_chrome_trace(self):
        prof = SpanProfiler()
        with prof.span("parent", "phase"):
            pass
        prof.absorb_chrome_trace(_trace_doc(999, "worker-span"))
        doc = prof.to_chrome_trace()
        names = [e.get("name") for e in doc["traceEvents"]]
        assert "worker-span" in names
        (ext,) = [e for e in doc["traceEvents"] if e.get("name") == "worker-span"]
        assert ext["pid"] == 999  # worker keeps its own track

    def test_absorbed_events_counted_in_summaries(self):
        prof = SpanProfiler()
        prof.absorb_chrome_trace(_trace_doc(7, "w", dur=2_000_000.0))
        assert prof.phase_seconds()["w"] == pytest.approx(2.0)
        (row,) = [r for r in prof.summary_rows() if r["name"] == "w"]
        assert row["calls"] == 1
        assert row["seconds"] == pytest.approx(2.0)

    def test_null_profiler_absorb_is_noop(self):
        from repro.obs.profile import NULL_PROFILER

        NULL_PROFILER.absorb_chrome_trace(_trace_doc(1, "x"))
        assert NULL_PROFILER.external_events() == []


def _nested_doc(pid, t0):
    """``outer`` [t0, t0+100] µs holding ``inner`` [t0+10, t0+40] µs, then
    a second root ``after`` [t0+200, t0+250] µs, all on one track."""
    def ev(name, ts, dur, **args):
        return {"ph": "X", "pid": pid, "tid": 0, "name": name, "cat": "c",
                "ts": ts, "dur": dur, "args": args}
    return {"traceEvents": [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": "repro"}},
        ev("outer", t0, 100.0),
        ev("inner", t0 + 10.0, 30.0, rss_delta_kb=8),
        ev("after", t0 + 200.0, 50.0),
    ]}


class TestAbsorbedSelfTime:
    def test_nesting_gives_self_time_and_rss(self):
        prof = SpanProfiler()
        prof.absorb_chrome_trace(_nested_doc(7, 0.0))
        rows = {r["name"]: r for r in prof.summary_rows()}
        assert rows["outer"]["self_seconds"] == pytest.approx(70e-6)
        assert rows["inner"]["self_seconds"] == pytest.approx(30e-6)
        assert rows["after"]["self_seconds"] == pytest.approx(50e-6)
        assert rows["inner"]["rss_delta_kb"] == 8

    def test_nesting_is_per_document(self):
        # Two attempts on one worker share a pid but each trace has its
        # own clock: the second document's spans nest only among
        # themselves, even where their stamps fall inside the first's.
        prof = SpanProfiler()
        prof.absorb_chrome_trace(_nested_doc(7, 0.0))
        prof.absorb_chrome_trace(_nested_doc(7, 5.0))
        rows = {r["name"]: r for r in prof.summary_rows()}
        assert rows["outer"]["calls"] == 2
        assert rows["outer"]["self_seconds"] == pytest.approx(140e-6)
        assert rows["inner"]["self_seconds"] == pytest.approx(60e-6)
        assert rows["after"]["self_seconds"] == pytest.approx(100e-6)

    def test_rounded_stamps_still_nest(self):
        # to_chrome_trace rounds ts and dur to 1e-3 µs: a child can
        # appear to end a hair after its parent.
        doc = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 0, "name": "p", "cat": "c",
             "ts": 0.0, "dur": 10.0},
            {"ph": "X", "pid": 1, "tid": 0, "name": "k", "cat": "c",
             "ts": 4.0, "dur": 6.001},
        ]}
        prof = SpanProfiler()
        prof.absorb_chrome_trace(doc)
        rows = {r["name"]: r for r in prof.summary_rows()}
        assert rows["p"]["self_seconds"] == pytest.approx(3.999e-6)
