"""Merging per-run observability shards into one artifact set.

A fanned-out bench matrix (``python -m repro.bench --jobs N``) writes
one artifact set per run: a Chrome trace, a metrics snapshot, and (for
instrumented runs) a convergence-trace JSONL.  This module folds those
shards back into the single-artifact formats the rest of the tooling
already consumes — ``python -m repro.obs report`` renders a merged
trace/metrics pair exactly like a serial one.

Merge semantics:

- **Chrome traces** — event lists are concatenated verbatim.  Events
  keep their original pid/tid, so every worker appears as its own
  process track in Perfetto next to the parent's.
- **Metrics snapshots** — instruments are summed (counters, histogram
  buckets, and gauges alike: shards start from fresh registries, so
  their totals are disjoint and summation is exact).  Histogram bucket
  boundaries must agree across shards.
- **Trace JSONL** — record lines are concatenated in shard order under
  one merged header whose ``merged_from`` entry carries each shard's
  own metadata (the per-task identity: ω, method, seed, …).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "merge_chrome_traces",
    "merge_metrics_payloads",
    "merge_profile_artifacts",
    "merge_snapshots",
    "merge_trace_jsonl",
]


def merge_chrome_traces(
    docs: Iterable[Dict[str, Any]], meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Concatenate Chrome-trace documents into one (pids kept verbatim)."""
    events: List[Dict[str, Any]] = []
    merged_from: List[Dict[str, Any]] = []
    for doc in docs:
        events.extend(doc.get("traceEvents", []))
        merged_from.append(dict(doc.get("metadata", {})))
    out_meta = dict(meta or {})
    out_meta["merged_from"] = merged_from
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": out_meta}


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum registry snapshots (the shard-merge semantics of
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`)."""
    reg = MetricsRegistry()
    for snap in snapshots:
        reg.merge_snapshot(snap)
    return reg.snapshot()


def _merge_span_rows(
    row_lists: Iterable[Sequence[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    rows: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for row_list in row_lists:
        for r in row_list:
            key = (str(r.get("name", "")), str(r.get("category", "")))
            row = rows.get(key)
            if row is None:
                row = rows[key] = {
                    "name": key[0],
                    "category": key[1],
                    "calls": 0,
                    "seconds": 0.0,
                    "self_seconds": 0.0,
                    "rss_delta_kb": 0,
                }
            row["calls"] += int(r.get("calls", 0))
            row["seconds"] += float(r.get("seconds", 0.0))
            row["self_seconds"] += float(r.get("self_seconds", 0.0))
            row["rss_delta_kb"] += int(r.get("rss_delta_kb", 0))
    return sorted(rows.values(), key=lambda r: r["seconds"], reverse=True)


def merge_metrics_payloads(
    docs: Iterable[Dict[str, Any]], meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Merge ``repro.profile.metrics`` artifacts into one payload."""
    docs = list(docs)
    phase_seconds: Dict[str, float] = {}
    for doc in docs:
        for name, sec in (doc.get("phase_seconds") or {}).items():
            phase_seconds[name] = phase_seconds.get(name, 0.0) + float(sec)
    out_meta = dict(meta or {})
    out_meta["merged_from"] = [dict(d.get("meta", {})) for d in docs]
    return {
        "kind": "repro.profile.metrics",
        "meta": out_meta,
        "phase_seconds": phase_seconds,
        "spans": _merge_span_rows(d.get("spans") or [] for d in docs),
        "metrics": merge_snapshots(d.get("metrics") or {} for d in docs),
    }


def merge_profile_artifacts(
    trace_paths: Sequence[str],
    metrics_paths: Sequence[str],
    out_stem: str,
    meta: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Merge shard files into ``<out_stem>.trace.json`` / ``.metrics.json``.

    Returns the paths written.  Either input list may be empty (e.g. a
    run with metrics shards but no profiler traces).
    """
    written: List[str] = []
    if trace_paths:
        docs = [_load_json(p) for p in trace_paths]
        path = f"{out_stem}.trace.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(merge_chrome_traces(docs, meta=meta), f)
        written.append(path)
    if metrics_paths:
        docs = [_load_json(p) for p in metrics_paths]
        path = f"{out_stem}.metrics.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(merge_metrics_payloads(docs, meta=meta), f, indent=1)
        written.append(path)
    return written


def merge_trace_jsonl(
    paths: Sequence[str], out_path: str, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Concatenate convergence-trace JSONL shards under one merged header.

    Each shard's own header metadata (its per-task identity) is preserved
    in the merged header's ``merged_from`` list; record lines follow in
    shard order, byte-for-byte as written by the workers.
    """
    from repro.obs.schema import decode_header, dumps_line, encode_header

    merged_from: List[Dict[str, Any]] = []
    bodies: List[List[str]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
        if not lines:
            raise ValueError(f"empty trace shard: {path}")
        shard_meta = decode_header(json.loads(lines[0]))
        shard_meta["shard_file"] = os.path.basename(path)
        merged_from.append(shard_meta)
        bodies.append(lines[1:])
    out_meta = dict(meta or {})
    out_meta["merged_from"] = merged_from
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(dumps_line(encode_header(out_meta)) + "\n")
        for body in bodies:
            for line in body:
                f.write(line + "\n")


def _load_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
