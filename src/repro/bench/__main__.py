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
    Install a :class:`~repro.obs.recorder.TraceRecorder` around every
    run and write one ``<problem>_<method>.jsonl`` convergence trace per
    run into ``DIR``.  Defaults to ``$REPRO_TRACE_DIR`` when set; the CLI
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
    ``$REPRO_JOBS``, else 1).  Each matrix entry is one task of a
    :class:`~repro.parallel.ParallelEngine`; with ``N = 1`` the tasks
    run one after another in this process.  With more than one entry
    the runs themselves parallelise (one worker per method × problem);
    with a single entry the PINN ω line search parallelises instead.
    Either way each run writes its artifacts and prints its row when it
    finishes, and the engine folds every run's telemetry into this
    process, which writes it as one more ``bench_merged.*`` set.
    Results are bitwise-identical for every ``N``.

Exit status
-----------
0 when every matrix entry ran; 1 when any entry failed.  A failed
entry is reported as ``FAILED`` on stderr and loses only its own row:
the other rows, the table and the merged artifacts are still written.

Timing regressions are measured by the repo benchmark (``perf/run.py``
and ``perf/compare.py``); this CLI prints one run's Table 3.  The
control service (:mod:`repro.serve`) is load-tested by the benchmark's
``serve_mix`` workload, which also checks its replies, store replays
and parity with direct execution.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
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
from repro.obs.health import watching
from repro.obs.metrics import use_registry
from repro.obs.profile import (
    current_profiler,
    profiling,
    write_profile_artifacts,
)
from repro.obs.recorder import TraceRecorder, current_recorder, recording
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


def _entry_problem(problem):
    """``problem`` as one matrix entry sees it: a shallow copy whose
    solvers (whatever counts ``n_solves``) are shallow copies too.

    The factorisations stay shared, but each entry's solve counters
    start where the assembled problem's stood, so its cache telemetry
    counts its own solves only: run serially, one entry no longer adds
    the solves of the entries before it, as a forked worker never did.
    """
    view = copy.copy(problem)
    for name, value in vars(problem).items():
        if hasattr(value, "n_solves"):
            setattr(view, name, copy.copy(value))
    return view


@contextlib.contextmanager
def _channels(trace_out, profile_out):
    """Install the requested telemetry channels for a block.

    Tracing installs a recorder; profiling installs a span profiler plus
    a fresh metrics registry (so counters don't bleed across blocks).
    Both default off, leaving the hot loops on their no-op paths.
    """
    with contextlib.ExitStack() as installed:
        if trace_out is not None:
            installed.enter_context(recording(TraceRecorder()))
        if profile_out is not None:
            installed.enter_context(use_registry())
            installed.enter_context(profiling())
        yield


def _run(spec, scale_name, trace_out, profile_out, watch=False, **kwargs):
    """Run ``spec``, write its ``<problem>_<method>.*`` artifacts and
    print its row when it finishes.

    The artifacts come from the fresh channels that
    :func:`repro.obs.attempt.capture` installs around the run's task
    attempt, in this process or in a matrix worker.  ``watch`` installs
    a health watchdog around the run.
    """
    rec = current_recorder()
    if rec is not None:
        rec.set_meta(scale=scale_name)
    with watching() if watch else contextlib.nullcontext() as wd:
        result = run(spec, **kwargs)
    if wd is not None and wd.counts:
        tally = ", ".join(f"{k}×{v}" for k, v in sorted(wd.counts.items()))
        print(f"    watchdog: {tally}", file=sys.stderr)
    stem = f"{result.problem}_{result.method.lower()}"
    if profile_out is not None:
        paths = write_profile_artifacts(
            os.path.join(profile_out, stem), current_profiler(),
            _run_meta(result),
        )
        print(f"    profile -> {paths[0]}")
    if trace_out is not None:
        path = os.path.join(trace_out, f"{stem}.jsonl")
        rec.to_jsonl(path)
        print(f"    trace -> {path}")
    note = (f"  (omega* = {result.extra['best_omega']:g})"
            if spec.method == "pinn" else "")
    print("  " + result.summary() + note, flush=True)
    return result


def _run_meta(result):
    return {"method": result.method, "problem": result.problem,
            "wall_time_s": result.wall_time_s}


def _write_merged(trace_out, profile_out, results) -> None:
    """Write the ``bench_merged.*`` set from the channels the matrix's
    runs were folded into."""
    meta = {"label": "bench matrix",
            "merged_from": [_run_meta(r) for r in results]}
    if profile_out is not None:
        for path in write_profile_artifacts(
            os.path.join(profile_out, "bench_merged"), current_profiler(), meta
        ):
            print(f"    merged -> {path}")
    if trace_out is not None:
        rec = current_recorder()
        rec.meta = meta
        path = os.path.join(trace_out, "bench_merged.jsonl")
        rec.to_jsonl(path)
        print(f"    merged -> {path}")


def main(argv=None) -> int:
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
    # Every entry of a family runs on one problem, assembled here once
    # (matrix workers inherit it through fork); each entry gets its own
    # solver counters (``_entry_problem``).
    problems = {}
    for spec in matrix:
        if spec.family not in problems:
            prob = problems[spec.family] = build_problem(spec)
            if spec.family == "laplace":
                print(f"Laplace problem: {prob.cloud.n} nodes, "
                      f"{prob.n_control}-dimensional control")
            else:
                print(f"Navier-Stokes channel: {prob.cloud.n} nodes, "
                      f"Re = {spec.reynolds:g}")

    # One task per matrix entry.  With more than one entry the entries
    # fan out and each PINN line search runs serially; a single entry
    # runs in this process and its PINN line search fans out instead.
    # A failed entry loses only its own row of the table.  The engine
    # folds each entry's telemetry into the channels installed here.
    fan = len(matrix) > 1
    engine = ParallelEngine(jobs=jobs if fan else 1, root_seed=0)
    tasks = [
        Task(key=f"{spec.family}_{spec.method}", fn=_run,
             args=(spec, scale.name, trace_out, profile_out, watch),
             kwargs={"problem": _entry_problem(problems[spec.family]),
                     "jobs": 1 if fan else jobs})
        for spec in matrix
    ]
    with _channels(trace_out, profile_out):
        outcomes = engine.run(tasks)
        results = [res.value for res in outcomes if res.ok]
        for spec, res in zip(matrix, outcomes):
            if not res.ok:
                detail = (res.error or {}).get("message", res.status)
                print(f"  {spec.family}/{spec.method}: FAILED "
                      f"({res.status}: {detail})", file=sys.stderr)
        _write_merged(trace_out, profile_out, results)

    print()
    print(render_performance_table(
        results, title=f"TABLE 3 (scale tier: {scale.name})"
    ))
    print(
        "\nPaper (full scale): Laplace J = 4.6e-3 / 1.6e-2 / 2.2e-9,"
        "\n                    NS      J = 8.2e-2 / 1.0e-3 / 2.6e-4"
        "  (DAL / PINN / DP)"
    )
    return 0 if len(results) == len(matrix) else 1


if __name__ == "__main__":
    sys.exit(main())
