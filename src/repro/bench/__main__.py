"""Command-line entry point: ``python -m repro.bench``.

Runs the end-to-end reproduction (every method × problem at the active
scale tier) and prints the paper's Tables 1–3 plus the headline series.
``REPRO_FULL=1`` switches to the paper-scale tier.

Options
-------
``--methods dal,dp,pinn``
    Comma-separated subset of methods to run (default: all three).
``--skip-pinn``
    Skip the (slow) PINN line searches; equivalent to removing ``pinn``
    from ``--methods``.
``--problem {laplace,ns,all}``
    Restrict to one benchmark problem.
``--trace-dir DIR``
    Attach a :class:`~repro.obs.recorder.TraceRecorder` to every run and
    write one ``<problem>_<method>.jsonl`` convergence trace per run
    into ``DIR``.  Defaults to ``$REPRO_TRACE_DIR`` when set; the CLI
    flag wins when both are given.
``--profile-dir DIR``
    Install a :class:`~repro.obs.profile.SpanProfiler` (and a fresh
    metrics registry) around every run and write one
    ``<problem>_<method>.trace.json`` Chrome trace plus one
    ``<problem>_<method>.metrics.json`` snapshot per run into ``DIR``.
    Defaults to ``$REPRO_PROFILE_DIR`` when set; the CLI flag wins.
    Render the artifacts with ``python -m repro.obs report DIR/*.json``.
``--watchdog``
    Install a :class:`~repro.obs.health.Watchdog` around every run:
    NaN/Inf telemetry, stalled convergence, and Krylov iteration
    blow-ups are reported live (and recorded into traces when
    ``--trace-dir`` is active).  Defaults on when ``REPRO_WATCHDOG=1``.
``--jobs N``
    Fan the run matrix across ``N`` worker processes (default:
    ``$REPRO_JOBS``, else serial).  With more than one matrix entry the
    runs themselves parallelise (one worker per method × problem) and any
    requested artifacts are additionally merged into a ``bench_merged.*``
    set; with a single entry the PINN ω line search parallelises instead.
    Results are bitwise-identical to a serial run either way.

Subcommands
-----------
``python -m repro.bench serve``
    Load-test the control service (:mod:`repro.serve`): boots a warm
    worker pool, drives ≥8 concurrent clients, checks parity against
    direct ``control.*`` calls, and reports throughput + p50/p95/p99
    latency.  See :mod:`repro.bench.serve_bench` for options.

Timing regressions are measured by the repo benchmark (``perf/run.py``
and ``perf/compare.py``); this CLI prints one run's Table 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.configs import (
    get_scale,
    profile_dir,
    trace_dir,
    watchdog_enabled,
)
from repro.bench.harness import run, spec_for
from repro.bench.tables import render_performance_table
from repro.control.spec import build_problem
from repro.obs.health import Watchdog, watching
from repro.obs.metrics import use_registry
from repro.obs.profile import SpanProfiler, metrics_payload, profiling
from repro.obs.recorder import TraceRecorder
from repro.parallel import ParallelEngine, Task, resolve_jobs

METHODS = ("dal", "dp", "pinn")

def _parse_methods(spec: str) -> "tuple[str, ...]":
    """Validate a ``--methods`` comma list into a subset of METHODS."""
    chosen = tuple(m.strip().lower() for m in spec.split(",") if m.strip())
    unknown = [m for m in chosen if m not in METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method(s) {', '.join(sorted(set(unknown)))!s}; "
            f"choose from {', '.join(METHODS)}"
        )
    if not chosen:
        raise argparse.ArgumentTypeError("--methods needs at least one method")
    # Preserve canonical order, drop duplicates.
    return tuple(m for m in METHODS if m in chosen)


def _write_profile_artifacts(out_dir, profiler, result) -> None:
    """Export one run's Chrome trace + metrics snapshot into ``out_dir``."""
    stem = f"{result.problem}_{result.method.lower()}"
    meta = {
        "method": result.method,
        "problem": result.problem,
        "wall_time_s": result.wall_time_s,
    }
    trace_path = os.path.join(out_dir, f"{stem}.trace.json")
    profiler.save_chrome_trace(trace_path, meta=meta)
    metrics_path = os.path.join(out_dir, f"{stem}.metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as f:
        json.dump(metrics_payload(profiler, meta=meta), f, indent=1)
    print(f"    profile -> {trace_path}")


def _call(spec, kwargs, watch):
    """Run ``spec``, optionally under a fresh watchdog."""
    if not watch:
        return run(spec, **kwargs)
    with watching(Watchdog()) as wd:
        result = run(spec, **kwargs)
    if wd.counts:
        tally = ", ".join(f"{k}×{v}" for k, v in sorted(wd.counts.items()))
        print(f"    watchdog: {tally}", file=sys.stderr)
    return result


def _run(trace_out, profile_out, spec, scale_name, watch=False, **kwargs):
    """Run ``spec`` with whichever observability layers are requested.

    Tracing attaches a recorder (tagged with the scale tier) and exports
    convergence JSONL; profiling installs a span profiler plus a fresh
    metrics registry (so per-run counters don't bleed across runs) and
    exports Chrome-trace + metrics JSON; ``watch`` wraps the run in a
    health watchdog.  All default off, leaving the hot loops on their
    no-op paths.
    """
    rec = TraceRecorder() if trace_out is not None else None
    if rec is not None:
        rec.set_meta(scale=scale_name)
        kwargs["recorder"] = rec
    if profile_out is not None:
        prof = SpanProfiler()
        with use_registry(), profiling(prof):
            result = _call(spec, kwargs, watch)
            _write_profile_artifacts(profile_out, prof, result)
    else:
        result = _call(spec, kwargs, watch)
    if rec is not None:
        path = os.path.join(
            trace_out, f"{result.problem}_{result.method.lower()}.jsonl"
        )
        rec.to_jsonl(path)
        print(f"    trace -> {path}")
    return result


def _matrix_task(spec, scale_name, trace_out, profile_out, watch):
    """One matrix entry, run inside a parallel worker.

    The worker receives the pickled spec and builds the problem from it
    rather than receiving the problem pickled, so fork and spawn start
    methods behave identically.  Per-run artifacts land in the shared output
    directories under the same stems a serial run uses; the
    ``ControlResult`` pickles back for the parent's table.
    """
    return _run(trace_out, profile_out, spec, scale_name, watch=watch)


def _merge_matrix_artifacts(trace_out, profile_out, results) -> None:
    """Fold per-run artifact files into one ``bench_merged.*`` set."""
    from repro.obs.merge import merge_profile_artifacts, merge_trace_jsonl

    stems = sorted(f"{r.problem}_{r.method.lower()}" for r in results)
    meta = {"merged": "bench matrix", "runs": stems}
    if profile_out is not None:
        traces = [os.path.join(profile_out, f"{s}.trace.json") for s in stems]
        metrics = [os.path.join(profile_out, f"{s}.metrics.json") for s in stems]
        written = merge_profile_artifacts(
            [p for p in traces if os.path.exists(p)],
            [p for p in metrics if os.path.exists(p)],
            os.path.join(profile_out, "bench_merged"),
            meta=meta,
        )
        for path in written:
            print(f"    merged -> {path}")
    if trace_out is not None:
        shards = [
            os.path.join(trace_out, f"{s}.jsonl")
            for s in stems
            if os.path.exists(os.path.join(trace_out, f"{s}.jsonl"))
        ]
        if shards:
            path = os.path.join(trace_out, "bench_merged.jsonl")
            merge_trace_jsonl(shards, path, meta=meta)
            print(f"    merged -> {path}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from repro.bench.serve_bench import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's evaluation tables.",
    )
    parser.add_argument("--methods", type=_parse_methods, default=METHODS,
                        metavar="LIST",
                        help="comma-separated subset of dal,dp,pinn")
    parser.add_argument("--skip-pinn", action="store_true",
                        help="skip the slow PINN line searches")
    parser.add_argument("--problem", choices=("laplace", "ns", "all"),
                        default="all")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write per-run convergence traces (JSONL) here "
                             "(overrides $REPRO_TRACE_DIR)")
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="write per-run Chrome traces + metrics JSON here "
                             "(overrides $REPRO_PROFILE_DIR)")
    parser.add_argument("--watchdog", action="store_true",
                        help="monitor runs for NaN/stall/Krylov blow-ups "
                             "(default on with REPRO_WATCHDOG=1)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the run matrix / PINN "
                             "line search (overrides $REPRO_JOBS)")
    args = parser.parse_args(argv)

    methods = tuple(m for m in args.methods if not (args.skip_pinn and m == "pinn"))
    trace_out = trace_dir(args.trace_dir)
    profile_out = profile_dir(args.profile_dir)
    watch = watchdog_enabled(args.watchdog)
    jobs = resolve_jobs(args.jobs)

    scale = get_scale()
    print(f"scale tier: {scale.name}  (set REPRO_FULL=1 for paper scale)")
    print(f"jobs: {jobs}\n" if jobs > 1 else "")
    for out in (trace_out, profile_out):
        if out:
            os.makedirs(out, exist_ok=True)

    families = tuple(
        p for p in ("laplace", "ns") if args.problem in (p, "all")
    )
    matrix = [spec_for(scale, p, m) for p in families for m in methods]
    fan_matrix = jobs > 1 and len(matrix) > 1

    results = []
    if fan_matrix:
        # One worker per matrix entry; inside a worker the nested-fan-out
        # guard resolves the PINN line search back to serial.  A failed
        # entry loses only its own row of the table.
        engine = ParallelEngine(jobs=jobs, root_seed=0)
        tasks = [
            Task(key=f"{spec.family}_{spec.method}", fn=_matrix_task,
                 args=(spec, scale.name, trace_out, profile_out, watch))
            for spec in matrix
        ]
        for spec, res in zip(matrix, engine.run(tasks)):
            if res.ok:
                results.append(res.value)
                print("  " + res.value.summary())
            else:
                detail = (res.error or {}).get("message", res.status)
                print(f"  {spec.family}/{spec.method}: FAILED "
                      f"({res.status}: {detail})", file=sys.stderr)
        _merge_matrix_artifacts(trace_out, profile_out, results)
    else:
        # Every method of a family runs on one assembled problem.
        built = {}
        for spec in matrix:
            prob = built.get(spec.family)
            if prob is None:
                prob = built[spec.family] = build_problem(spec)
                if spec.family == "laplace":
                    print(f"Laplace problem: {prob.cloud.n} nodes, "
                          f"{prob.n_control}-dimensional control")
                else:
                    print(f"\nNavier-Stokes channel: {prob.cloud.n} nodes, "
                          f"Re = {spec.reynolds:g}")
            r = _run(trace_out, profile_out, spec, scale.name, problem=prob,
                     jobs=jobs, watch=watch)
            results.append(r)
            note = (f"  (omega* = {r.extra['best_omega']:g})"
                    if spec.method == "pinn" else "")
            print("  " + r.summary() + note)

    print()
    print(render_performance_table(
        results, title=f"TABLE 3 (scale tier: {scale.name})"
    ))
    print(
        "\nPaper (full scale): Laplace J = 4.6e-3 / 1.6e-2 / 2.2e-9,"
        "\n                    NS      J = 8.2e-2 / 1.0e-3 / 2.6e-4"
        "  (DAL / PINN / DP)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
