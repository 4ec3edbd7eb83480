"""Hierarchical span profiling: where the wall-clock time goes.

The convergence traces (:mod:`repro.obs.recorder`) answer *what the
optimiser did*; this module answers *where the time went* — RBF assembly
vs. LU factorisation vs. adjoint solves vs. tape replay — as a tree of
**spans**.  A span is one timed region with a name, a category, optional
attributes, and children (regions opened while it was open).  Spans
nest per thread; spans recorded from worker threads land on their own
track.

Usage mirrors the recorder's zero-overhead contract.  Instrumented code
calls the *module-level* :func:`span` helper::

    from repro.obs.profile import span

    with span("rbf.factorize", "solver"):
        lu = sla.lu_factor(A)

With no profiler installed (the default), :func:`span` returns a shared
no-op context manager: the disabled path costs one global read and an
empty ``with`` block, within a 2 % design budget on the hottest
instrumented loops.  Installing a profiler
(:func:`profiling` / :func:`set_profiler`) makes the same call sites
record real spans.

Exports:

- :meth:`SpanProfiler.to_chrome_trace` — the Chrome/Perfetto
  ``traceEvents`` JSON format (open in https://ui.perfetto.dev).
- :meth:`SpanProfiler.phase_seconds` — wall seconds per top-level phase
  (the per-method breakdown the paper's Table 3 implies).
- :meth:`SpanProfiler.summary_rows` — per-span-name aggregation (calls,
  total, self time) for reports.

Peak-RSS deltas: with ``track_rss=True`` each span records how much the
process-wide peak RSS grew while it was open (``ru_maxrss`` deltas; KiB
on Linux).  This is a *peak* watermark, so only spans that push the
high-water mark show nonzero deltas — exactly the ones that matter.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs._install import Slot

try:  # pragma: no cover - resource is POSIX-only
    import resource

    def _peak_rss_kb() -> int:
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

except ImportError:  # pragma: no cover

    def _peak_rss_kb() -> int:
        return 0


__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "ProfileError",
    "Span",
    "SpanProfiler",
    "current_profiler",
    "metrics_payload",
    "profiled",
    "profiling",
    "set_profiler",
    "span",
    "write_profile_artifacts",
]


class ProfileError(RuntimeError):
    """Raised on structurally invalid span usage (unbalanced enter/exit)."""


class Span:
    """One timed region: name, category, wall interval, children.

    ``t_start``/``t_end`` are ``perf_counter`` readings relative to the
    owning profiler's epoch.  The interval deliberately includes the
    profiler's own per-span bookkeeping (object allocation, stack push/
    pop) so that the sum of sibling spans tracks the enclosing wall time
    — phase totals stay within the report's 5 % coverage budget instead
    of leaking profiler overhead into unattributed gaps.

    ``rss_delta_kb`` is the growth of the process peak-RSS watermark
    while the span was open (0 unless the profiler tracks RSS and this
    span pushed the high-water mark).

    A ``Span`` is its own context manager: entering pushes it onto the
    owning profiler's per-thread stack, exiting closes it.  Exceptions
    inside the body still close the span and propagate unchanged —
    profiling must observe a failure, never mask it.
    """

    __slots__ = (
        "name",
        "category",
        "attrs",
        "t_start",
        "t_end",
        "thread_id",
        "children",
        "rss_delta_kb",
        "_rss0",
        "_profiler",
    )

    def __init__(
        self,
        name: str,
        category: str,
        attrs: Optional[Dict[str, Any]],
        profiler: Optional["SpanProfiler"] = None,
    ):
        self.name = name
        self.category = category
        self.attrs = attrs
        self.t_start = 0.0
        self.t_end = 0.0
        self.thread_id = 0
        self.children: List["Span"] = []
        self.rss_delta_kb = 0
        self._rss0 = 0
        self._profiler = profiler

    @property
    def seconds(self) -> float:
        """Total wall seconds (enter to exit)."""
        return self.t_end - self.t_start

    @property
    def self_seconds(self) -> float:
        """Wall seconds not covered by child spans."""
        return self.seconds - sum(c.t_end - c.t_start for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __enter__(self) -> "Span":
        self._profiler._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler.end(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"seconds={self.seconds:.6f}, children={len(self.children)})"
        )


#: Slack (µs) when nesting absorbed events: ``to_chrome_trace`` rounds
#: ``ts`` and ``dur`` to 1e-3 µs each, so two end stamps differ by up to
#: 2e-3 µs from their true order.
_NEST_SLACK_US = 2e-3


def _self_seconds(events: List[Dict[str, Any]]) -> List[float]:
    """Self seconds of each event of one Chrome-trace document.

    ``to_chrome_trace`` emits each root span depth-first, so on one
    ``(pid, tid)`` track an event is a child of the innermost earlier
    event that still encloses its end; a child's duration comes off its
    parent's self time.  Events other than ``"X"`` get 0.
    """
    out = [0.0] * len(events)
    open_by_track: Dict[Tuple[Any, Any], List[Tuple[int, float]]] = {}
    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue
        dur = float(ev.get("dur", 0.0))
        end = float(ev.get("ts", 0.0)) + dur
        out[i] = dur / 1e6
        stack = open_by_track.setdefault((ev.get("pid"), ev.get("tid")), [])
        while stack and end > stack[-1][1] + _NEST_SLACK_US:
            stack.pop()
        if stack:
            out[stack[-1][0]] -= dur / 1e6
        stack.append((i, end))
    return out


class SpanProfiler:
    """Collects a span tree per thread; thread-safe; export to Chrome trace.

    Parameters
    ----------
    track_rss:
        Record peak-RSS watermark deltas per span (one ``getrusage``
        syscall on enter and exit).  Off by default.
    """

    enabled = True

    def __init__(self, track_rss: bool = False) -> None:
        self.track_rss = bool(track_rss)
        self.roots: List[Span] = []
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        # Thread registration order -> stable small track ids.
        self._threads: Dict[int, str] = {}
        # Chrome-trace events absorbed from worker processes; they
        # carry their own (real) pid/tid and are re-emitted verbatim.
        # ``_external_self`` holds each one's self seconds.
        self._external: List[Dict[str, Any]] = []
        self._external_self: List[float] = []

    def __bool__(self) -> bool:
        return True

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, sp: Span) -> None:
        """Put an already-stamped span on the calling thread's stack."""
        self._stack().append(sp)
        if self.track_rss:
            sp._rss0 = _peak_rss_kb()

    def begin(
        self,
        name: str,
        category: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span; it becomes the parent of spans opened after it."""
        sp = self.span(name, category, attrs)
        self._push(sp)
        return sp

    def end(self, span: Optional[Span] = None) -> Span:
        """Close the innermost open span (must be ``span`` when given).

        Raises :class:`ProfileError` on unbalanced usage: closing with no
        span open, or closing a span that is not the innermost one.
        """
        stack = self._stack()
        if not stack:
            name = f" {span.name!r}" if span is not None else ""
            raise ProfileError(
                f"cannot close span{name}: no span is open on this thread "
                "(unbalanced begin/end)"
            )
        top = stack[-1]
        if span is not None and span is not top:
            raise ProfileError(
                f"cannot close span {span.name!r}: the innermost open span "
                f"is {top.name!r} (spans must close in LIFO order)"
            )
        stack.pop()
        if self.track_rss:
            top.rss_delta_kb = max(_peak_rss_kb() - top._rss0, 0)
        if stack:
            # The interval closes *after* the parent-link append so the
            # child absorbs its own bookkeeping (see Span docstring).
            stack[-1].children.append(top)
            top.t_end = time.perf_counter() - self._epoch
        else:
            thread = threading.current_thread()
            top.thread_id = thread.ident or 0
            top.t_end = time.perf_counter() - self._epoch
            with self._lock:
                self._threads.setdefault(top.thread_id, thread.name)
                self.roots.append(top)
        return top

    def span(
        self, name: str, category: str = "", attrs: Optional[Dict[str, Any]] = None
    ) -> Span:
        """Context manager recording one span (the span *is* the CM).

        The start stamp is taken here, before the span object is even
        allocated, so the interval charges the profiler's own cost to
        the span instead of to an unattributed gap.
        """
        t0 = time.perf_counter()
        sp = Span(name, category, attrs, self)
        sp.t_start = t0 - self._epoch
        return sp

    def profiled(
        self, name: Optional[str] = None, category: str = "function"
    ) -> Callable:
        """Decorator wrapping every call of a function in a span."""
        import functools

        def deco(fn):
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(label, category):
                    return fn(*args, **kwargs)

            return wrapper

        return deco

    def open_spans(self) -> int:
        """Number of spans still open on the calling thread."""
        return len(self._stack())

    # -- worker traces -------------------------------------------------
    def absorb_chrome_trace(self, doc: Dict[str, Any]) -> None:
        """Merge a worker's Chrome trace into this profiler.

        The parallel engine hands over the ``to_chrome_trace`` document a
        worker process sent back with a task's reply; its events keep
        their real pid/tid, so each worker appears as its own process
        track next to the parent's spans in Perfetto.  Absorbed events
        also contribute to :meth:`phase_seconds` and :meth:`summary_rows`
        (calls, total and self seconds, RSS deltas).  Self time comes
        from the nesting of the document's events per ``(pid, tid)``
        (:func:`_self_seconds`), so it is derived once per document:
        two attempts of one worker share a pid but not a clock.
        """
        events = [e for e in doc.get("traceEvents", []) if isinstance(e, dict)]
        selfs = _self_seconds(events)
        with self._lock:
            self._external.extend(events)
            self._external_self.extend(selfs)

    def external_events(self) -> List[Dict[str, Any]]:
        """Absorbed worker-shard events (verbatim Chrome-trace dicts)."""
        with self._lock:
            return list(self._external)

    # -- views ---------------------------------------------------------
    def spans(self) -> List[Span]:
        """All *finished* spans, depth-first from each root, all threads."""
        with self._lock:
            roots = list(self.roots)
        out: List[Span] = []
        for root in roots:
            out.extend(root.walk())
        return out

    def phase_seconds(self, category: str = "phase") -> Dict[str, float]:
        """Total wall seconds per span name within one category.

        The instrumented loops tag their disjoint top-level phases
        (``grad`` / ``update`` / ``eval``) with category ``"phase"``, so
        the default returns the per-run phase breakdown whose sum tracks
        the loop's wall time.
        """
        totals: Dict[str, float] = {}
        for sp in self.spans():
            if sp.category == category:
                totals[sp.name] = totals.get(sp.name, 0.0) + sp.seconds
        for ev in self.external_events():
            if ev.get("ph") == "X" and ev.get("cat") == category:
                name = str(ev.get("name", ""))
                totals[name] = totals.get(name, 0.0) + float(ev.get("dur", 0.0)) / 1e6
        return totals

    def summary_rows(self) -> List[Dict[str, Any]]:
        """Per-name aggregation: calls, total seconds, self seconds, RSS."""
        rows: Dict[Tuple[str, str], Dict[str, Any]] = {}

        def add(name, category, seconds, self_seconds, rss_delta_kb):
            row = rows.get((name, category))
            if row is None:
                row = rows[(name, category)] = {
                    "name": name,
                    "category": category,
                    "calls": 0,
                    "seconds": 0.0,
                    "self_seconds": 0.0,
                    "rss_delta_kb": 0,
                }
            row["calls"] += 1
            row["seconds"] += seconds
            row["self_seconds"] += self_seconds
            row["rss_delta_kb"] += rss_delta_kb

        for sp in self.spans():
            add(sp.name, sp.category, sp.seconds, sp.self_seconds,
                sp.rss_delta_kb)
        with self._lock:
            absorbed = list(zip(self._external, self._external_self))
        for ev, self_seconds in absorbed:
            if ev.get("ph") == "X":
                add(str(ev.get("name", "")), str(ev.get("cat", "") or ""),
                    float(ev.get("dur", 0.0)) / 1e6, self_seconds,
                    int((ev.get("args") or {}).get("rss_delta_kb", 0)))
        return sorted(rows.values(), key=lambda r: r["seconds"], reverse=True)

    # -- export --------------------------------------------------------
    def to_chrome_trace(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The trace as a Chrome/Perfetto ``traceEvents`` object.

        Every finished span becomes one complete (``"ph": "X"``) event
        with microsecond ``ts``/``dur``; thread-name metadata events map
        worker threads onto named tracks.  The result loads directly in
        ``chrome://tracing`` and https://ui.perfetto.dev.
        """
        pid = os.getpid()
        with self._lock:
            threads = dict(self._threads)
            roots = list(self.roots)
        tid_of = {ident: i for i, ident in enumerate(threads)}
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro"},
            }
        ]
        for ident, name in threads.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid_of[ident],
                    "args": {"name": name},
                }
            )
        for root in roots:
            tid = tid_of.get(root.thread_id, 0)
            for sp in root.walk():
                args: Dict[str, Any] = dict(sp.attrs) if sp.attrs else {}
                if sp.rss_delta_kb:
                    args["rss_delta_kb"] = sp.rss_delta_kb
                events.append(
                    {
                        "name": sp.name,
                        "cat": sp.category or "default",
                        "ph": "X",
                        "ts": round(sp.t_start * 1e6, 3),
                        "dur": round(sp.seconds * 1e6, 3),
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
        # Absorbed worker events ride along verbatim: their pid/tid are
        # the worker's real ones, so each worker gets its own process track.
        events.extend(self.external_events())
        out: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
        # Profile artifacts share provenance with trace headers: the
        # environment fingerprint rides in ``metadata.env``
        # (caller-supplied ``meta`` keys win on collision).
        from repro.obs.fingerprint import environment_fingerprint

        metadata: Dict[str, Any] = {"env": environment_fingerprint()}
        if meta:
            metadata.update(meta)
        out["metadata"] = metadata
        return out

    def save_chrome_trace(self, path, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write :meth:`to_chrome_trace` as JSON."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_chrome_trace(meta), f)

    def save_html(self, path, title: str = "profile") -> None:
        """Render this profile as a standalone flamegraph-style HTML page."""
        from repro.obs.report import render_report

        with open(path, "w", encoding="utf-8") as f:
            f.write(render_report([self.to_chrome_trace({"label": title})]))


class NullProfiler:
    """Profiling disabled: falsy, and every method is a no-op."""

    __slots__ = ()
    enabled = False
    track_rss = False

    def __bool__(self) -> bool:
        return False

    def begin(self, name, category="", attrs=None):
        return None

    def end(self, span=None):
        return None

    def span(self, name, category="", attrs=None):
        return _NOOP_SPAN

    def profiled(self, name=None, category="function"):
        return lambda fn: fn

    def spans(self):
        return []

    def phase_seconds(self, category="phase"):
        return {}

    def summary_rows(self):
        return []

    def absorb_chrome_trace(self, doc):
        return None

    def external_events(self):
        return []


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()

#: Shared stateless no-op profiler (parallel to ``NULL_RECORDER``).
NULL_PROFILER = NullProfiler()

# The process-wide active profiler.  ``None`` (the default) keeps every
# instrumented call site on the no-op path.
_PROFILER = Slot()


def current_profiler() -> Optional[SpanProfiler]:
    """The installed profiler, or ``None`` when profiling is disabled."""
    return _PROFILER.current


def set_profiler(profiler: Optional[SpanProfiler]) -> Optional[SpanProfiler]:
    """Install ``profiler`` process-wide; returns the previous one."""
    return _PROFILER.set(profiler)


def profiling(profiler: Optional[SpanProfiler] = None):
    """``with profiling() as prof:`` — install (a fresh) profiler for a block."""
    return _PROFILER.scoped(profiler if profiler is not None else SpanProfiler())


def span(name: str, category: str = "", attrs: Optional[Dict[str, Any]] = None):
    """Record a span on the active profiler (shared no-op when disabled).

    This is the call instrumented code uses.  The disabled path is one
    module-global read plus an empty context manager, within a 2 % design
    budget on the instrumented hot loops.
    """
    p = _PROFILER.current
    if p is None:
        return _NOOP_SPAN
    return p.span(name, category, attrs)


def metrics_payload(
    profiler: Optional[SpanProfiler] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``repro.profile.metrics`` artifact document, fingerprinted.

    The payload :func:`write_profile_artifacts` writes:
    run metadata, the environment fingerprint, the profiler's per-phase
    seconds and span rows, and the active registry snapshot.  ``profiler``
    defaults to the installed one (no-op rows when none is active).
    """
    from repro.obs.fingerprint import environment_fingerprint
    from repro.obs.metrics import get_registry

    prof: Any = profiler if profiler is not None else current_profiler()
    prof = prof or NULL_PROFILER
    return {
        "kind": "repro.profile.metrics",
        "meta": dict(meta) if meta else {},
        "env": environment_fingerprint(),
        "phase_seconds": prof.phase_seconds(),
        "spans": prof.summary_rows(),
        "metrics": get_registry().snapshot(),
    }


def write_profile_artifacts(
    stem: str, profiler: SpanProfiler, meta: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Write ``<stem>.trace.json`` and ``<stem>.metrics.json``.

    The one writer of the profile artifact pair: ``profiler``'s Chrome
    trace and its :func:`metrics_payload` (with the active registry),
    both carrying ``meta``.  Returns the two paths written.
    """
    paths = [f"{stem}.trace.json", f"{stem}.metrics.json"]
    profiler.save_chrome_trace(paths[0], meta=meta)
    with open(paths[1], "w", encoding="utf-8") as f:
        json.dump(metrics_payload(profiler, meta=meta), f, indent=1)
    return paths


def profiled(name: Optional[str] = None, category: str = "function") -> Callable:
    """Decorator: wrap calls in a span *when a profiler is active*.

    Unlike :meth:`SpanProfiler.profiled` this binds dynamically — the
    function stays usable (and no-op cheap) with profiling disabled.
    """
    import functools

    def deco(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            p = _PROFILER.current
            if p is None:
                return fn(*args, **kwargs)
            with p.span(label, category):
                return fn(*args, **kwargs)

        return wrapper

    return deco
