"""Standalone HTML performance reports from profile artifacts.

:func:`render_report` turns the artifacts written by
``python -m repro.bench --profile-dir`` — Chrome-trace JSON
(:meth:`~repro.obs.profile.SpanProfiler.to_chrome_trace`) and metrics
snapshots (``*.metrics.json``) — into one self-contained HTML page:

- a per-method **stacked phase breakdown** (grad / update / eval wall
  seconds per run — the per-method decomposition of Table 3's runtime
  column), with legend and table view;
- a **flamegraph** per trace, spans stacked by containment on each
  thread track, hover tooltips via native ``title``;
- the **metrics registry snapshot** per run (counters, gauges,
  histogram summaries).

No JavaScript dependencies: the page is pure HTML/CSS (light and dark
via CSS custom properties) and renders offline.  The same traces load in
https://ui.perfetto.dev for interactive digging.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["load_artifact", "render_report"]

# Categorical palette (fixed hue order, never cycled; validated for CVD
# separation on both surfaces).  Light / dark steps per slot.
_SERIES_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_SERIES_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)

# Span categories get fixed slots so "solver" is the same hue in every
# flamegraph of the page (color follows the entity, never its rank).
_CATEGORY_SLOT = {
    "phase": 0,
    "method": 1,
    "solver": 2,
    "pde": 3,
    "function": 4,
    "default": 6,
}

_FLAME_MIN_PCT = 0.02   # hide spans narrower than this fraction of the trace
_FLAME_MAX_EVENTS = 6000


def load_artifact(path: str) -> Dict[str, Any]:
    """Read one profile artifact (Chrome trace or metrics JSON)."""
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Artifact normalisation
# ----------------------------------------------------------------------
def _run_label(meta: Dict[str, Any]) -> str:
    method = meta.get("method")
    problem = meta.get("problem")
    if method and problem:
        return f"{problem} · {method}"
    return str(meta.get("label") or "run")


def _phases_from_events(events: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Phase totals (seconds) recovered from ``cat == "phase"`` events."""
    totals: Dict[str, float] = {}
    for ev in events:
        if ev.get("ph") == "X" and ev.get("cat") == "phase":
            name = str(ev.get("name", ""))
            totals[name] = totals.get(name, 0.0) + float(ev.get("dur", 0.0)) / 1e6
    return totals


def _collect_runs(traces: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Merge trace and metrics artifacts into per-run records by label."""
    runs: Dict[str, Dict[str, Any]] = {}

    def rec_for(meta: Dict[str, Any]) -> Dict[str, Any]:
        label = _run_label(meta)
        rec = runs.setdefault(label, {
            "label": label, "meta": {}, "phase_seconds": {},
            "trace": None, "spans": None, "metrics": None,
        })
        rec["meta"].update(meta)
        return rec

    for doc in traces:
        if not isinstance(doc, dict):
            continue
        if "traceEvents" in doc:
            rec = rec_for(doc.get("metadata") or {})
            rec["trace"] = doc
            if not rec["phase_seconds"]:
                rec["phase_seconds"] = _phases_from_events(doc["traceEvents"])
        else:
            rec = rec_for(doc.get("meta") or {})
            if doc.get("phase_seconds"):
                rec["phase_seconds"] = dict(doc["phase_seconds"])
            if doc.get("spans") is not None:
                rec["spans"] = doc["spans"]
            if doc.get("metrics") is not None:
                rec["metrics"] = doc["metrics"]
    return sorted(runs.values(), key=lambda r: r["label"])


def _phase_order(runs: List[Dict[str, Any]]) -> List[str]:
    """Union of phase names in a stable order (loop phases first)."""
    order = ["grad", "update", "eval"]
    seen = [p for p in order if any(p in r["phase_seconds"] for r in runs)]
    for r in runs:
        for p in r["phase_seconds"]:
            if p not in seen:
                seen.append(p)
    return seen


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------
def _esc(s: Any) -> str:
    return html.escape(str(s), quote=True)


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "—"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return f"{int(x):,}"
    return f"{x:.4g}"


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _render_legend(entries: List[Tuple[str, int]]) -> str:
    items = "".join(
        f'<span class="legend-item"><span class="swatch s{slot + 1}"></span>'
        f"{_esc(name)}</span>"
        for name, slot in entries
    )
    return f'<div class="legend">{items}</div>'


def _render_phase_bars(runs: List[Dict[str, Any]], phases: List[str]) -> str:
    """Horizontal stacked bars: one row per run, one segment per phase."""
    if not any(r["phase_seconds"] for r in runs):
        return "<p class='muted'>No phase spans in the supplied artifacts.</p>"
    max_total = max(
        sum(r["phase_seconds"].values()) for r in runs if r["phase_seconds"]
    ) or 1.0
    rows = []
    for r in runs:
        ps = r["phase_seconds"]
        if not ps:
            continue
        total = sum(ps.values())
        segs = []
        for i, p in enumerate(phases):
            sec = ps.get(p, 0.0)
            if sec <= 0:
                continue
            pct = 100.0 * sec / max_total
            segs.append(
                f'<div class="seg s{(i % len(_SERIES_LIGHT)) + 1}" '
                f'style="width:{pct:.3f}%" '
                f'title="{_esc(r["label"])} — {_esc(p)}: {_fmt_s(sec)} '
                f'({100.0 * sec / total:.1f}%)"></div>'
            )
        rows.append(
            '<div class="bar-row">'
            f'<div class="bar-label">{_esc(r["label"])}</div>'
            f'<div class="bar-track">{"".join(segs)}</div>'
            f'<div class="bar-value">{_fmt_s(total)}</div>'
            "</div>"
        )
    legend = _render_legend([(p, i % len(_SERIES_LIGHT)) for i, p in enumerate(phases)])
    return legend + "".join(rows)


def _render_phase_table(runs: List[Dict[str, Any]], phases: List[str]) -> str:
    """Table view of the phase breakdown (Table-3 shape + coverage)."""
    head = "".join(f"<th>{_esc(p)}</th>" for p in phases)
    body = []
    for r in runs:
        ps = r["phase_seconds"]
        total = sum(ps.values())
        wall = r["meta"].get("wall_time_s")
        cov = f"{100.0 * total / wall:.1f}%" if wall else "—"
        cells = "".join(f'<td class="num">{_fmt_s(ps.get(p))}</td>' for p in phases)
        body.append(
            f"<tr><td>{_esc(r['label'])}</td>{cells}"
            f'<td class="num">{_fmt_s(total)}</td>'
            f'<td class="num">{_fmt_s(wall)}</td>'
            f'<td class="num">{cov}</td></tr>'
        )
    return (
        '<table><thead><tr><th>run</th>' + head
        + "<th>phase sum</th><th>wall time</th><th>coverage</th>"
        + "</tr></thead><tbody>" + "".join(body) + "</tbody></table>"
    )


def _flame_tracks(
    events: List[Dict[str, Any]],
) -> List[Tuple[int, str, List[Tuple[int, Dict[str, Any]]]]]:
    """Per-tid (tid, thread name, [(depth, event), ...]) by containment."""
    tracks: Dict[int, List[Dict[str, Any]]] = {}
    names: Dict[int, str] = {}
    for ev in events:
        tid = int(ev.get("tid", 0))
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[tid] = str(ev.get("args", {}).get("name", ""))
        elif ev.get("ph") == "X":
            tracks.setdefault(tid, []).append(ev)
    out = []
    for tid in sorted(tracks):
        evs = sorted(
            tracks[tid], key=lambda e: (float(e["ts"]), -float(e.get("dur", 0.0)))
        )
        open_ends: List[float] = []
        placed: List[Tuple[int, Dict[str, Any]]] = []
        for ev in evs:
            ts = float(ev["ts"])
            while open_ends and ts >= open_ends[-1] - 1e-6:
                open_ends.pop()
            placed.append((len(open_ends), ev))
            open_ends.append(ts + float(ev.get("dur", 0.0)))
        out.append((tid, names.get(tid) or f"thread {tid}", placed))
    return out


def _render_flamegraph(run: Dict[str, Any]) -> str:
    trace = run["trace"]
    if not trace:
        return ""
    events = [ev for ev in trace["traceEvents"] if ev.get("ph") in ("X", "M")]
    xs = [ev for ev in events if ev.get("ph") == "X"]
    if not xs:
        return "<p class='muted'>Empty trace (no spans recorded).</p>"
    t0 = min(float(ev["ts"]) for ev in xs)
    t1 = max(float(ev["ts"]) + float(ev.get("dur", 0.0)) for ev in xs)
    total = max(t1 - t0, 1e-9)
    parts = []
    dropped = 0
    rendered = 0
    for tid, tname, placed in _flame_tracks(events):
        depth = max(d for d, _ in placed) + 1
        spans_html = []
        for d, ev in placed:
            dur = float(ev.get("dur", 0.0))
            pct = 100.0 * dur / total
            if pct < _FLAME_MIN_PCT or rendered >= _FLAME_MAX_EVENTS:
                dropped += 1
                continue
            rendered += 1
            left = 100.0 * (float(ev["ts"]) - t0) / total
            cat = str(ev.get("cat", "default"))
            slot = _CATEGORY_SLOT.get(cat, 7)
            name = str(ev.get("name", ""))
            tip = f"{name} — {_fmt_s(dur / 1e6)} ({cat})"
            label = _esc(name) if pct > 4.0 else ""
            spans_html.append(
                f'<div class="fspan s{slot + 1}" style="left:{left:.3f}%;'
                f'width:{max(pct, 0.05):.3f}%;top:{d * 19}px" '
                f'title="{_esc(tip)}">{label}</div>'
            )
        parts.append(
            f'<div class="track-name">{_esc(tname)}</div>'
            f'<div class="flame" style="height:{depth * 19 - 2}px">'
            + "".join(spans_html) + "</div>"
        )
    cats = sorted(
        {str(ev.get("cat", "default")) for ev in xs},
        key=lambda c: _CATEGORY_SLOT.get(c, 7),
    )
    legend = _render_legend([(c, _CATEGORY_SLOT.get(c, 7)) for c in cats])
    note = (
        f'<p class="muted">{dropped} spans narrower than '
        f"{_FLAME_MIN_PCT:g}% of the trace are not drawn.</p>"
        if dropped else ""
    )
    return legend + "".join(parts) + note


def _render_metrics(run: Dict[str, Any]) -> str:
    metrics = run.get("metrics")
    if not metrics:
        return ""
    scalars = []
    hists = []
    for name in sorted(metrics):
        snap = metrics[name]
        kind = snap.get("kind", "")
        if kind == "histogram":
            hists.append(
                f"<tr><td>{_esc(name)}</td>"
                f'<td class="num">{_fmt_num(float(snap.get("count", 0)))}</td>'
                f'<td class="num">{_fmt_num(float(snap.get("mean", 0.0)))}</td>'
                f'<td class="num">{_fmt_num(float(snap.get("sum", 0.0)))}</td></tr>'
            )
        else:
            scalars.append(
                f"<tr><td>{_esc(name)}</td><td>{_esc(kind)}</td>"
                f'<td class="num">{_fmt_num(float(snap.get("value", 0.0)))}</td></tr>'
            )
    out = []
    if scalars:
        out.append(
            "<table><thead><tr><th>metric</th><th>kind</th><th>value</th>"
            "</tr></thead><tbody>" + "".join(scalars) + "</tbody></table>"
        )
    if hists:
        out.append(
            "<table><thead><tr><th>histogram</th><th>count</th><th>mean</th>"
            "<th>sum</th></tr></thead><tbody>" + "".join(hists)
            + "</tbody></table>"
        )
    return "".join(out)


# ----------------------------------------------------------------------
# Page
# ----------------------------------------------------------------------
def _css() -> str:
    light_vars = "".join(
        f"--c{i + 1}:{c};" for i, c in enumerate(_SERIES_LIGHT)
    )
    dark_vars = "".join(
        f"--c{i + 1}:{c};" for i, c in enumerate(_SERIES_DARK)
    ) + "--surface:#1a1a19;--ink:#ffffff;--ink-2:#c3c2b7;--grid:#2c2c2a;"
    slots = "".join(
        f".viz-root .s{i + 1}{{background:var(--c{i + 1})}}"
        for i in range(len(_SERIES_LIGHT))
    )
    return f"""
:root{{color-scheme:light dark}}
.viz-root{{
  {light_vars}
  --surface:#fcfcfb;--ink:#0b0b0b;--ink-2:#52514e;--grid:#e1e0d9;
  background:var(--surface);color:var(--ink);
  font-family:system-ui,-apple-system,sans-serif;font-size:14px;
  max-width:1080px;margin:0 auto;padding:24px;
}}
{slots}
@media (prefers-color-scheme: dark){{
  .viz-root{{{dark_vars}}}
}}
:root[data-theme="dark"] .viz-root{{{dark_vars}}}
.viz-root h1{{font-size:20px;margin:0 0 4px}}
.viz-root h2{{font-size:16px;margin:28px 0 8px}}
.viz-root h3{{font-size:14px;margin:18px 0 6px;color:var(--ink-2)}}
.viz-root .muted{{color:var(--ink-2)}}
.viz-root .legend{{display:flex;flex-wrap:wrap;gap:14px;margin:8px 0}}
.viz-root .legend-item{{display:inline-flex;align-items:center;gap:6px;color:var(--ink-2)}}
.viz-root .swatch{{width:10px;height:10px;border-radius:3px;display:inline-block}}
.viz-root .bar-row{{display:flex;align-items:center;gap:10px;margin:6px 0}}
.viz-root .bar-label{{flex:0 0 170px;text-align:right;color:var(--ink-2)}}
.viz-root .bar-track{{flex:1;display:flex;gap:2px;height:22px}}
.viz-root .seg{{height:100%}}
.viz-root .seg:first-child{{border-radius:4px 0 0 4px}}
.viz-root .seg:last-child{{border-radius:0 4px 4px 0}}
.viz-root .seg:only-child{{border-radius:4px}}
.viz-root .bar-value{{flex:0 0 70px;font-variant-numeric:tabular-nums}}
.viz-root table{{border-collapse:collapse;margin:10px 0;width:100%}}
.viz-root th{{text-align:left;color:var(--ink-2);font-weight:600}}
.viz-root th,.viz-root td{{padding:4px 10px;border-bottom:1px solid var(--grid)}}
.viz-root td.num,.viz-root th.num{{text-align:right;font-variant-numeric:tabular-nums}}
.viz-root .track-name{{color:var(--ink-2);margin:10px 0 2px}}
.viz-root .flame{{position:relative;border:1px solid var(--grid);border-radius:4px;overflow:hidden}}
.viz-root .fspan{{position:absolute;height:17px;border-radius:2px;
  box-shadow:0 0 0 1px var(--surface);overflow:hidden;white-space:nowrap;
  color:#ffffff;font-size:11px;line-height:17px;padding:0 3px;box-sizing:border-box}}
.viz-root details{{margin:8px 0}}
.viz-root summary{{cursor:pointer;color:var(--ink-2)}}
"""


def render_report(
    traces: List[Dict[str, Any]], title: str = "Performance report"
) -> str:
    """Render profile artifacts (trace and/or metrics dicts) to HTML."""
    runs = _collect_runs(traces)
    phases = _phase_order(runs)
    sections = [
        f"<h1>{_esc(title)}</h1>",
        '<p class="muted">Per-method wall-clock decomposition from the span '
        "profiler; open the raw traces in ui.perfetto.dev for interactive "
        "navigation.</p>",
    ]
    if runs:
        sections.append("<h2>Phase breakdown</h2>")
        sections.append(_render_phase_bars(runs, phases))
        sections.append(_render_phase_table(runs, phases))
        for run in runs:
            flame = _render_flamegraph(run)
            metrics_tbl = _render_metrics(run)
            if not flame and not metrics_tbl:
                continue
            sections.append(f"<h2>{_esc(run['label'])}</h2>")
            if flame:
                sections.append(flame)
            if metrics_tbl:
                sections.append(
                    "<details><summary>metrics registry snapshot</summary>"
                    + metrics_tbl + "</details>"
                )
    else:
        sections.append("<p class='muted'>No profile artifacts supplied.</p>")
    body = "".join(sections)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_css()}</style></head>"
        f'<body style="margin:0"><div class="viz-root">{body}</div>'
        "</body></html>\n"
    )
