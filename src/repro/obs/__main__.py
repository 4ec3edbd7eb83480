"""Command-line trace tooling: ``python -m repro.obs <command>``.

Commands
--------
``summary TRACE``
    Headline numbers of one trace: iteration count, first/final/best
    cost, phase time totals, cache hit rates.
``diff BASELINE CANDIDATE``
    Compare two traces under the golden tolerance policy; exits 1 when
    any field is out of tolerance.  Timings are never compared.
``record CONFIG``
    Run a tier-0 config under telemetry and write its trace (used to
    bless golden baselines).  ``--profile-dir DIR`` additionally installs
    the span profiler and writes Chrome-trace + metrics JSON artifacts.
``report FILES... [-o OUT]``
    Render profile artifacts (``*.trace.json`` / ``*.metrics.json`` from
    ``python -m repro.bench --profile-dir``) into one standalone HTML
    comparison page.
``list``
    Show the available tier-0 configs.

Performance over time is measured by the repo benchmark (``perf/run.py``
and ``perf/compare.py``), not by this CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.obs.compare import TolerancePolicy, diff_traces, format_diff
from repro.obs.recorder import TraceRecorder


def _cmd_summary(args) -> int:
    trace = TraceRecorder.from_jsonl(args.trace)
    print(json.dumps(trace.summary(), indent=2, sort_keys=True, default=str))
    return 0


def _cmd_diff(args) -> int:
    baseline = TraceRecorder.from_jsonl(args.baseline)
    candidate = TraceRecorder.from_jsonl(args.candidate)
    policy = TolerancePolicy(
        cost_rtol=args.cost_rtol,
        grad_rtol=args.grad_rtol,
        residual_rtol=args.residual_rtol,
    )
    devs = diff_traces(baseline, candidate, policy)
    print(format_diff(devs))
    return 1 if devs else 0


def _cmd_record(args) -> int:
    from repro.obs.goldens import TIER0, run_tier0

    if args.config not in TIER0:
        args.parser.error(f"unknown config {args.config!r}; "
                          f"available: {', '.join(sorted(TIER0))}")
    if args.profile_dir:
        from repro.obs.metrics import use_registry
        from repro.obs.profile import SpanProfiler, metrics_payload, profiling

        os.makedirs(args.profile_dir, exist_ok=True)
        prof = SpanProfiler()
        t0 = time.perf_counter()
        with use_registry(), profiling(prof):
            trace = run_tier0(args.config)
            meta = {"label": args.config,
                    "wall_time_s": time.perf_counter() - t0}
            stem = os.path.join(args.profile_dir, args.config)
            prof.save_chrome_trace(f"{stem}.trace.json", meta=meta)
            with open(f"{stem}.metrics.json", "w", encoding="utf-8") as f:
                json.dump(metrics_payload(prof, meta=meta), f, indent=1)
        print(f"profile -> {stem}.trace.json / {stem}.metrics.json")
    else:
        trace = run_tier0(args.config)
    out = args.out or f"{args.config}.jsonl"
    trace.to_jsonl(out)
    summary = trace.summary()
    print(
        f"wrote {out}: {summary['n_iterations']} iterations, "
        f"final J = {summary['final_cost']:.6e}"
    )
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import load_artifact, render_report

    docs = [load_artifact(p) for p in args.files]
    page = render_report(docs, title=args.title)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(page)
    print(f"wrote {args.out} ({len(docs)} artifact(s))")
    return 0


def _cmd_list(args) -> int:
    from repro.obs.goldens import TIER0

    for name, spec in sorted(TIER0.items()):
        print(
            f"{name:24s} {spec.problem_name:>13s} | {spec.method.upper():>3s} | "
            f"{spec.iterations} iters @ lr {spec.lr:g}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description="Convergence-trace tooling."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="print headline numbers of a trace")
    p.add_argument("trace")
    p.set_defaults(fn=_cmd_summary)

    p = sub.add_parser("diff", help="compare two traces (exit 1 on deviation)")
    p.add_argument("baseline")
    p.add_argument("candidate")
    pol = TolerancePolicy()
    p.add_argument("--cost-rtol", type=float, default=pol.cost_rtol)
    p.add_argument("--grad-rtol", type=float, default=pol.grad_rtol)
    p.add_argument("--residual-rtol", type=float, default=pol.residual_rtol)
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("record", help="run a tier-0 config and write its trace")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output path (default CONFIG.jsonl)")
    p.add_argument("--profile-dir", default=None, metavar="DIR",
                   help="also profile the run and write Chrome-trace + "
                        "metrics JSON artifacts here")
    p.set_defaults(fn=_cmd_record, parser=p)

    p = sub.add_parser(
        "report", help="render profile artifacts into a standalone HTML page"
    )
    p.add_argument("files", nargs="+",
                   help="*.trace.json / *.metrics.json artifacts")
    p.add_argument("-o", "--out", default="profile_report.html")
    p.add_argument("--title", default="Performance report")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("list", help="list tier-0 configs")
    p.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
