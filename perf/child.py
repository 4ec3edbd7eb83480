"""One benchmark process: set up one workload, then (role ``main``) measure it.

``run.py`` starts this script in a fresh interpreter, once per set-up
sample (role ``setup``: set up, report, exit) and once to measure (role
``main``).  ``--spawn-t`` is the parent's ``time.monotonic()`` just
before the spawn, so ``setup_s`` covers interpreter start, imports,
building the problem and the warm-up.  The last line of standard output
is one JSON object:

``{"setup_s": s}`` for role ``setup``; for role ``main`` also
``"metrics"`` (name -> value), ``"checks"`` ([check, ok, detail] rows),
``"samples"`` (sample counts behind the metrics) and ``"tails"`` (step
latency p95/p99, printed but not reported as metrics).

The main role of an in-process workload runs, in order: the gradient
checks, the timed window (units back to back until the next unit would
overrun ``--seconds``), with ``--trace 1`` a second, traced window of the
same length as the first (both halves of ``--seconds``), and last the
memory pass: one more unit under ``tracemalloc``.  No timed unit runs
with ``tracemalloc`` on.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Any, Dict, List, Tuple

import stats

Check = Tuple[str, bool, str]


def _window(workload, seconds: float, quick: bool) -> List[Any]:
    units = []
    t_start = time.perf_counter()
    while True:
        unit = workload.run_unit()
        units.append(unit)
        elapsed = time.perf_counter() - t_start
        if quick or elapsed + unit.seconds > seconds:
            return units


def _end_to_end(units, peak_bytes: int, min_beyond: int) -> Dict[str, Any]:
    """Medians over units and steps: a host stall during one unit moves a
    mean over the window, not a median."""
    steps = [s for u in units for s in u.steps_ms]
    return {
        "run_s": stats.median([u.seconds for u in units]),
        "step_ms_p50": stats.percentile(steps, 50, min_beyond),
        "throughput_per_s": stats.median([u.n_steps / u.seconds for u in units]),
        "peak_mem_mb": peak_bytes / 1e6,
    }


def tails(latencies_ms: List[float], min_beyond: int) -> Dict[str, Any]:
    """Tail percentiles of step latency, printed with the result but not
    gated: on this benchmark's in-process workloads they measure the
    host's stalls more than the program (see perf/README.md)."""
    return {f"step_ms_p{q}": stats.percentile(latencies_ms, q, min_beyond)
            for q in (95, 99)}


def _layer_metrics(tracer, compiled, traced, untraced, lu_fact: float,
                   peaks: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics, per traced unit."""
    n = len(traced)
    g = tracer.get

    def per_unit(x: float) -> float:
        return x / n

    run_s = sum(u.seconds for u in traced) / n
    out = {
        "control.optimize.s": per_unit(g("control.optimize").total_s),
        "control.pinn.omega_line_search.s":
            per_unit(g("control.pinn.omega_line_search").total_s),
        "control.value_and_grad.self_s": per_unit(g("control.value_and_grad").self_s),
        "pde.solve_ad.self_s": per_unit(g("pde.solve_ad").self_s),
        "pde.momentum_matrix_ad.s": per_unit(g("pde.momentum_matrix_ad").total_s),
        "pde.cost_ad.s": per_unit(g("pde.cost_ad").total_s),
        "autodiff.solve.s": per_unit(g("autodiff.solve").total_s),
        "autodiff.solve.calls": per_unit(g("autodiff.solve").calls),
        "autodiff.backward.s": per_unit(g("autodiff.backward").total_s),
        "pde.solve.self_s": per_unit(g("pde.solve").self_s),
        "pde.solve.calls": per_unit(g("pde.solve").calls),
        "control.dal.solve_adjoint.s": per_unit(g("control.dal.solve_adjoint").total_s),
        "control.dal.solve_adjoint.calls": per_unit(g("control.dal.solve_adjoint").calls),
        "autodiff.lu_solver.s": per_unit(g("autodiff.lu_solver").total_s),
        "autodiff.lu_solver.calls": per_unit(g("autodiff.lu_solver").calls),
        "autodiff.lu_solver.factorizations": per_unit(lu_fact),
        "control.pinn.train_pair.s": per_unit(g("control.pinn.train_pair").total_s),
        "control.pinn.retrain_state.s": per_unit(g("control.pinn.retrain_state").total_s),
        "control.pinn.evaluate_cost.s": per_unit(g("control.pinn.evaluate_cost").total_s),
        "nn.adam_step.s": per_unit(g("nn.adam_step").total_s),
        "nn.adam_step.calls": per_unit(g("nn.adam_step").calls),
        "unattributed.s": run_s - per_unit(tracer.self_total()),
        "control.value_and_grad.peak_mb": peaks.get("control.value_and_grad", 0) / 1e6,
        "pde.solve_ad.peak_mb": peaks.get("pde.solve_ad", 0) / 1e6,
    }
    first = g("autodiff.compiled_vg.first")
    rest = g("autodiff.compiled_vg")
    cache = compiled.cache_totals()
    p50 = stats.percentile([d * 1e3 for d in rest.durations], 50, 0)
    out.update({
        "autodiff.compiled_vg.first_call_s":
            first.total_s / first.calls if first.calls else 0.0,
        "autodiff.compiled_vg.call_ms_p50": p50 if p50 is not None else 0.0,
        "autodiff.compiled_vg.calls": per_unit(first.calls + rest.calls),
        "autodiff.compiled_vg.traces": per_unit(cache.get("traces", 0)),
        "autodiff.compiled_vg.eager": per_unit(cache.get("eager", 0)),
        "autodiff.compiled_vg.codegen_fallbacks":
            per_unit(cache.get("codegen_fallbacks", 0)),
        "perf.trace_overhead_frac":
            run_s / (sum(u.seconds for u in untraced) / len(untraced)) - 1.0,
    })
    return out


def run_in_process(args) -> Dict[str, Any]:
    from repro.obs.metrics import get_registry
    from repro.utils.timers import PeakMemory

    import workloads
    from tracer import COMPILED_FACTORY, COMPILED_LAYER, MemoryProbe, Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, quick=args.quick)
    setup_s = time.monotonic() - args.spawn_t
    if args.role == "setup":
        return {"setup_s": setup_s}

    checks: List[Check] = []
    relerr = {"dp": 0.0, "dal": 0.0}
    if hasattr(workload, "grad_fd_relerr"):
        relerr = workload.grad_fd_relerr()
        checks.append(("DP directional derivative matches central FD",
                       relerr["dp"] <= workloads.DP_FD_RTOL,
                       f"rel err {relerr['dp']:.3e}"))

    span = args.seconds / 2 if args.trace else args.seconds
    untraced = _window(workload, span, args.quick)
    units = list(untraced)
    layer: Dict[str, float] = {}
    if args.trace:
        tracer = Tracer(keep_durations=(COMPILED_LAYER,))
        counter = get_registry().counter("linalg.dense.factorizations")
        fact0 = counter.value
        tracer.install()
        compiled = tracer.install_factory(*COMPILED_FACTORY, COMPILED_LAYER)
        try:
            traced = _window(workload, span, args.quick)
        finally:
            tracer.uninstall()
        units += traced
        lu_fact = counter.value - fact0

    # Without a collection first, the garbage-collector schedule of the
    # memory pass depends on how many units ran before it, which moves
    # the PINN peak by ~1 %.
    gc.collect()
    probe = MemoryProbe()
    probe.install()
    try:
        with PeakMemory() as pm:
            units.append(workload.run_unit())
    finally:
        probe.uninstall()

    if args.trace:
        layer = _layer_metrics(tracer, compiled, traced, untraced, lu_fact,
                               probe.peak_bytes)
        layer["control.dp.grad_fd_relerr"] = relerr["dp"]
        layer["control.dal.grad_fd_relerr"] = relerr["dal"]
        # unattributed.s is the traced run_s minus the layers' self times:
        # negative means time counted twice, large means a missing root.
        run_s = sum(u.seconds for u in traced) / len(traced)
        checks.append((
            "layer self times account for the traced run_s within 5 %",
            abs(layer["unattributed.s"]) <= 0.05 * run_s,
            f"unattributed {layer['unattributed.s']:.4g} s of {run_s:.4g} s",
        ))

    checks += workloads.unit_gates(workload, args.seed, args.quick, units)
    metrics = _end_to_end(untraced, pm.peak_bytes, 0 if args.quick else stats.MIN_BEYOND)
    metrics.update(layer)
    steps = [s for u in untraced for s in u.steps_ms]
    return {
        "setup_s": setup_s,
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "checks": checks,
        "samples": {"units": len(untraced), "steps": len(steps)},
        "tails": tails(steps, stats.MIN_BEYOND),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--spawn-t", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "serve_mix":
        import serve_mix

        result = serve_mix.run(
            args.seed, args.seconds, args.quick, args.role, args.spawn_t,
            args.root, args.work_dir,
        )
    else:
        result = run_in_process(args)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
