"""End-to-end experiment runs: one spec per method × problem, one runner.

:func:`spec_for` maps the active scale tier onto a
:class:`~repro.control.spec.RunSpec` (the paper's Table 1/2 settings,
scaled); :func:`run` builds the spec's problem and method, runs it, and
returns a :class:`~repro.control.problem.ControlResult` carrying the
Table-3 metrics (final cost, iterations, wall time, peak memory) plus
method-specific extras (cost history for Fig. 3b/4b, controls for
Fig. 3a/4c, line-search data for Fig. 3c–e).

With a trace recorder installed (:func:`~repro.obs.recorder.recording`)
:func:`run` emits per-iteration convergence telemetry — tagged with the
method/problem identity — and the oracle's cumulative cache statistics,
ready for JSONL export (``python -m repro.bench --trace-dir``).  Without
one, the loops take their zero-overhead path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.bench.configs import ExperimentScale
from repro.bench.metrics import measure_run
from repro.control.loop import optimize
from repro.control.pinn import omega_line_search
from repro.control.problem import ControlResult
from repro.control.spec import RunSpec, build_oracle, build_problem
from repro.obs.hooks import record_oracle_telemetry
from repro.obs.recorder import current_recorder


def spec_for(scale: ExperimentScale, family: str, method: str) -> RunSpec:
    """The run of ``method`` on ``family`` at ``scale``.

    ``method`` is ``dal``, ``dp``, ``fd`` or ``pinn``.  FD costs ``2n``
    solves per gradient, so its iteration budget is cut to a fifth (at
    least 10).  Only DP runs a compiled oracle (``$REPRO_COMPILE``); a
    PINN trains on the compiled tier under the scale's ``pinn.compile``.
    """
    p = scale.pinn
    if family == "laplace":
        s = scale.laplace
        spec = RunSpec(
            family=family, method=method, nx=s.nx, backend=s.backend,
            solver=s.solver, compile=s.compile and method == "dp",
            iterations=s.iterations, lr=s.lr_dal if method == "dal" else s.lr_dp,
        )
        if method == "fd":
            spec = replace(spec, iterations=max(s.iterations // 5, 10))
        if method == "pinn":
            spec = replace(spec, iterations=p.laplace_epochs, lr=p.laplace_lr,
                           hidden=p.laplace_hidden, omegas=p.laplace_omegas)
    elif family == "ns":
        s = scale.ns
        spec = RunSpec(
            family=family, method=method, nx=s.nx, ny=s.ny, backend=s.backend,
            solver=s.solver, compile=s.compile and method == "dp",
            iterations=s.iterations, lr=s.lr, reynolds=s.reynolds,
            refinements=s.refinements_dal if method == "dal" else s.refinements_dp,
            pseudo_dt=s.pseudo_dt, adjoint_refinements=s.adjoint_refinements,
            perturbation=s.perturbation,
        )
        if method == "pinn":
            spec = replace(spec, iterations=p.ns_epochs, lr=p.ns_lr,
                           hidden=p.ns_hidden, omegas=p.ns_omegas)
    else:
        raise ValueError(f"unknown family {family!r}")
    if method == "pinn":
        spec = replace(spec, compile=p.compile, n_interior=p.n_interior,
                       n_boundary=p.n_boundary)
    return spec


def run(
    spec: RunSpec,
    problem=None,
    jobs: Optional[int] = None,
) -> ControlResult:
    """Run one spec and return its Table-3 row.

    ``problem`` shares an assembled problem (and its factorisation)
    across runs; it must be the one ``build_problem(spec)`` builds.  A
    PINN runs the two-step ω line search over ``spec.omegas``; ``jobs``
    fans the ω candidates across worker processes (default: the
    ``$REPRO_JOBS`` resolution of :func:`repro.parallel.resolve_jobs`),
    bitwise-identical to the serial search.
    """
    prob = problem if problem is not None else build_problem(spec)
    oracle = build_oracle(spec, prob)
    trace = current_recorder()
    if trace is not None:
        trace.set_meta(method=spec.method.upper(),
                       problem=spec.problem_name, backend=prob.backend)
    if spec.family == "laplace":
        extra = {"control_x": prob.control_x}
    else:
        extra = {"reynolds": spec.reynolds, "refinements": spec.refinements,
                 "inflow_y": prob.inflow_y}

    if spec.method == "pinn":
        ls, t, mem = measure_run(
            lambda: omega_line_search(oracle, spec.omegas, jobs=jobs)
        )
        c = oracle.control_values(ls.params_c)
        # Headline cost: the PINN's control priced under the reference
        # RBF physics by the eager DP oracle, so Table 3 compares every
        # method under the same physics.  The surrogate's own estimate
        # is budget-limited (EXPERIMENTS.md D4) and stays in the extras.
        final_cost = build_oracle(replace(spec, method="dp", compile=False),
                                  prob).value(c)
        best = ls.step1[ls.omegas.index(float(ls.best_omega))]
        history = [r.cost_history[-1] for r in ls.step1]
        extra.update({
            "surrogate_cost": ls.best_cost,
            "physical_cost": final_cost,
            # ls.omegas holds the ω values that actually ran: a failed
            # parallel candidate drops out of it and of ls.step1 alike.
            "omegas": list(ls.omegas),
            "best_omega": ls.best_omega,
            "step1_final_losses": [r.loss_history[-1] for r in ls.step1],
            "step1_final_costs": list(history),
            "step1_final_residuals": [r.residual_history[-1] for r in ls.step1],
            "step2_costs": ls.step2_costs,
            "epoch_cost_history": best.cost_history,
        })
    else:
        (c, hist), t, mem = measure_run(
            lambda: optimize(oracle, spec.iterations, spec.lr)
        )
        # FD prices through an eager DP oracle, whose solver holds the
        # cache telemetry.
        record_oracle_telemetry(
            oracle.cost_fn.__self__ if spec.method == "fd" else oracle
        )
        history = hist.costs
        # NS-DAL reports its *final* cost: the paper's Table 3 reflects
        # where DAL ends up, not its best transient.
        ns_dal = (spec.family, spec.method) == ("ns", "dal")
        final_cost = hist.costs[-1] if ns_dal else hist.best_cost
        extra.update({"best_cost": hist.best_cost,
                      "grad_norms": hist.grad_norms})
        if spec.method == "fd":
            extra["n_evaluations"] = oracle.n_evaluations
    return ControlResult(
        method=spec.method.upper(),
        problem=spec.problem_name,
        control=c,
        final_cost=final_cost,
        iterations=spec.iterations,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=history,
        extra=extra,
    )
