"""The repository benchmark: ``python3 perf/run.py [--workload NAME] --seed S``.

Runs from the root of a checkout; the program is imported from
``src/``.  With ``--workload`` it measures that one workload and prints,
as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``)
or every ``per_layer`` metric (``--trace 1``), each as
``{"value": v, "unit": u}``.  ``attempted``/``failed`` count the
correctness checks the run made.

Without ``--workload`` it runs every workload ``--repeat`` times, one
process at a time, prints a table and, with ``--out``, writes the result
set that ``perf/compare.py`` reads.

Each measurement runs in fresh interpreters: ``SETUPS - 1`` processes
that only set the workload up, then one that sets up and measures.
``setup_s`` is the median of the set-up times of all of them.  Workload
sizes and the reasons for them are in ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("ns_dp", "ns_dal", "laplace_pinn", "serve_mix")
SETUPS = 5
#: Whole-run budget: every process of one measurement must finish in it.
RUN_BUDGET_S = 170.0
WORK_DIR = ".perf_work"


class BenchError(RuntimeError):
    """A measurement that could not be made."""


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _spawn(workload: str, seed: int, seconds: float, trace: int, role: str,
           quick: bool, work_dir: str, deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` once; return its JSON result.

    The child leads its own process group, so whatever it starts (the
    service and its workers) is stopped with it.
    """
    env = dict(os.environ)
    # One BLAS thread per process.  With OpenBLAS's default of one thread
    # per core, the service's two workers plus its front and the clients
    # oversubscribe a 2-core machine, and served requests stall for ~1.5 s
    # at random; the in-process workloads (n = 231 and 676) gain nothing
    # from a second thread.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--role", role, "--root", ROOT, "--work-dir", work_dir]
    if quick:
        cmd.append("--quick")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawn-t", repr(t_spawn)], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload} {role} process overran the time budget")
    finally:
        _kill_group(proc.pid)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} {role} process failed (exit {proc.returncode})"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            quick: bool, work_dir: str) -> Dict[str, Any]:
    """One measurement of one workload; the raw result plus ``setup_s``."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    # A traced run reports no setup_s, so it needs no extra set-up samples.
    for _ in range(0 if quick or trace else SETUPS - 1):
        setups.append(_spawn(workload, seed, seconds, trace, "setup", quick,
                             work_dir, deadline)["setup_s"])
    result = _spawn(workload, seed, seconds, trace, "main", quick, work_dir,
                    deadline)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = stats.median(setups)
    result["samples"]["setups"] = len(setups)
    return result


def report(workload: str, result: Dict[str, Any], specs: List[Dict[str, Any]],
           known: List[str], layer_names: List[str]) -> Dict[str, Any]:
    """The contract's JSON object for one measurement.

    Per-layer metrics belong to one workload family; a layer the workload
    never calls reads 0.  An end-to-end metric the run could not measure
    (a percentile short of samples) is left out and fails the check
    ``every reported metric measured``.  A measured name that
    ``BENCHMARK.json`` does not list is an error, so a misspelt metric
    cannot pass as a zero.
    """
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(known))
    if unknown:
        raise BenchError(f"{workload} measured unlisted metrics {unknown}")
    out = {}
    missing = []
    for spec in specs:
        name = spec["name"]
        if name in metrics:
            value = metrics[name]
        elif name in layer_names:
            value = 0.0
        else:
            missing.append(name)
            continue
        out[name] = {"value": float(value), "unit": spec["unit"]}
    checks = result["checks"]
    checks.append(("every reported metric measured", not missing,
                   f"missing: {missing}"))
    failed = sum(1 for _, ok, _ in checks if not ok)
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed, "metrics": out}


def _print_human(workload: str, result: Dict[str, Any],
                 doc: Dict[str, Any]) -> None:
    for name, m in doc["metrics"].items():
        print(f"{workload:13s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:13s} samples: {json.dumps(result['samples'])}")
    print(f"{workload:13s} tails (not gated): {json.dumps(result['tails'])}")
    for check, ok, detail in result["checks"]:
        if not ok:
            print(f"{workload:13s} FAILED {check}: {detail}")
    print(f"{workload:13s} checks: {doc['attempted'] - doc['failed']}"
          f"/{doc['attempted']} passed")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="Measure the repository benchmark (see perf/README.md)."
    )
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="measure one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed window (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--repeat", type=int, default=1,
                    help="measurements per workload without --workload")
    ap.add_argument("--out", default=None,
                    help="without --workload: write the result set here")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: one set-up, one short unit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perf/run.py: no program sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = float(args.seconds or bench["run_seconds"])
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    layer_names = [m["name"] for m in bench["per_layer"]]
    known = layer_names + [m["name"] for m in bench["end_to_end"]]
    work_dir = os.path.join(ROOT, WORK_DIR, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.workload:
            result = measure(args.workload, args.seed, seconds, args.trace,
                             args.quick, work_dir)
            doc = report(args.workload, result, specs, known, layer_names)
            _print_human(args.workload, result, doc)
            print(json.dumps(doc))
            return 0

        results: Dict[str, List[Dict[str, Any]]] = {}
        for workload in WORKLOADS:
            for _ in range(args.repeat):
                result = measure(workload, args.seed, seconds, args.trace,
                                 args.quick, work_dir)
                doc = report(workload, result, specs, known, layer_names)
                _print_human(workload, result, doc)
                results.setdefault(workload, []).append(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump({"seed": args.seed, "seconds": seconds,
                           "trace": args.trace, "workloads": results},
                          f, indent=1, sort_keys=True)
                f.write("\n")
        ok = all(d["correct"] for docs in results.values() for d in docs)
        print(json.dumps({"correct": ok, "workloads": sorted(results)}))
        return 0 if ok else 1
    except BenchError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
