"""End-to-end experiment runners — one per method × problem.

Each runner builds the problem at the active scale, runs the method, and
returns a :class:`~repro.control.problem.ControlResult` carrying the
Table-3 metrics (final cost, iterations, wall time, peak memory) plus
method-specific extras (cost history for Fig. 3b/4b, controls for
Fig. 3a/4c, line-search data for Fig. 3c–e).

Every runner accepts an optional ``recorder``
(:class:`~repro.obs.recorder.TraceRecorder`): when given, the run emits
per-iteration convergence telemetry — tagged with the method/problem/
scale identity — and the oracle's cumulative cache statistics, ready for
JSONL export (``python -m repro.bench --trace-dir``).  Without one, the
loops take their zero-overhead path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bench.configs import ExperimentScale, get_scale
from repro.bench.metrics import measure_run
from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.control.dal import LaplaceDAL, NavierStokesDAL
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.fd import FiniteDifferenceOracle
from repro.control.loop import optimize
from repro.control.pinn import (
    LaplacePINN,
    NavierStokesPINN,
    PINNTrainConfig,
    omega_line_search,
)
from repro.control.problem import ControlResult
from repro.obs.hooks import record_oracle_telemetry
from repro.pde.laplace import LaplaceControlProblem
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig


def _tag_trace(recorder, method: str, problem: str, scale: ExperimentScale,
               backend: str) -> None:
    """Stamp run identity onto a trace (no-op for falsy recorders)."""
    if recorder:
        recorder.set_meta(
            method=method, problem=problem, scale=scale.name, backend=backend
        )


# ----------------------------------------------------------------------
# Problem factories
# ----------------------------------------------------------------------
def make_laplace_problem(
    scale: Optional[ExperimentScale] = None,
    backend: Optional[str] = None,
    solver: Optional[str] = None,
) -> LaplaceControlProblem:
    """Laplace problem at the active scale.

    ``backend`` overrides the scale's operator backend ("dense" for the
    paper's global collocation, "local" for sparse RBF-FD); ``solver``
    overrides the linear-solver choice ("direct" or "iterative" — the
    latter requires the local backend).
    """
    s = scale or get_scale()
    return LaplaceControlProblem(
        SquareCloud(s.laplace.nx),
        backend=backend or s.laplace.backend,
        solver=solver or s.laplace.solver,
    )


def make_ns_problem(
    scale: Optional[ExperimentScale] = None,
    backend: Optional[str] = None,
    solver: Optional[str] = None,
) -> ChannelFlowProblem:
    """Channel-flow problem at the active scale."""
    s = scale or get_scale()
    return ChannelFlowProblem(
        cloud=ChannelCloud(s.ns.nx, s.ns.ny),
        perturbation=s.ns.perturbation,
        backend=backend or s.ns.backend,
        solver=solver or s.ns.solver,
    )


def _ns_config(scale: ExperimentScale, refinements: int, reynolds=None) -> NSConfig:
    return NSConfig(
        reynolds=scale.ns.reynolds if reynolds is None else reynolds,
        refinements=refinements,
        pseudo_dt=scale.ns.pseudo_dt,
    )


# ----------------------------------------------------------------------
# Laplace runners
# ----------------------------------------------------------------------
def run_laplace_dal(
    problem: Optional[LaplaceControlProblem] = None,
    scale: Optional[ExperimentScale] = None,
    recorder=None,
) -> ControlResult:
    """DAL on the Laplace problem (Table 1 column / Fig. 3 curves)."""
    s = scale or get_scale()
    prob = problem or make_laplace_problem(s)
    oracle = LaplaceDAL(prob)
    _tag_trace(recorder, "DAL", "laplace", s, prob.backend)

    def run():
        return optimize(
            oracle, s.laplace.iterations, s.laplace.lr_dal, recorder=recorder
        )

    (c, hist), t, mem = measure_run(run, recorder)
    record_oracle_telemetry(recorder, oracle)
    return ControlResult(
        method="DAL",
        problem="laplace",
        control=c,
        final_cost=hist.best_cost,
        iterations=s.laplace.iterations,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=hist.costs,
        extra={"grad_norms": hist.grad_norms, "control_x": prob.control_x},
    )


def run_laplace_dp(
    problem: Optional[LaplaceControlProblem] = None,
    scale: Optional[ExperimentScale] = None,
    recorder=None,
) -> ControlResult:
    """DP on the Laplace problem."""
    s = scale or get_scale()
    prob = problem or make_laplace_problem(s)
    oracle = LaplaceDP(prob, compile=s.laplace.compile)
    _tag_trace(recorder, "DP", "laplace", s, prob.backend)

    def run():
        return optimize(
            oracle, s.laplace.iterations, s.laplace.lr_dp, recorder=recorder
        )

    (c, hist), t, mem = measure_run(run, recorder)
    record_oracle_telemetry(recorder, oracle)
    return ControlResult(
        method="DP",
        problem="laplace",
        control=c,
        final_cost=hist.best_cost,
        iterations=s.laplace.iterations,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=hist.costs,
        extra={"grad_norms": hist.grad_norms, "control_x": prob.control_x},
    )


def run_laplace_fd(
    problem: Optional[LaplaceControlProblem] = None,
    scale: Optional[ExperimentScale] = None,
    iterations: Optional[int] = None,
    recorder=None,
) -> ControlResult:
    """Finite-difference baseline on Laplace (footnote-11 comparison).

    FD costs ``2n`` solves per gradient, so its iteration budget is cut
    to keep runtime bounded.
    """
    s = scale or get_scale()
    prob = problem or make_laplace_problem(s)
    dp = LaplaceDP(prob)  # reuse the cheap forward evaluation
    oracle = FiniteDifferenceOracle(dp.value, prob.zero_control())
    iters = iterations if iterations is not None else max(s.laplace.iterations // 5, 10)
    _tag_trace(recorder, "FD", "laplace", s, prob.backend)

    def run():
        return optimize(oracle, iters, s.laplace.lr_dp, recorder=recorder)

    (c, hist), t, mem = measure_run(run, recorder)
    record_oracle_telemetry(recorder, dp)
    return ControlResult(
        method="FD",
        problem="laplace",
        control=c,
        final_cost=hist.best_cost,
        iterations=iters,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=hist.costs,
        extra={"n_evaluations": oracle.n_evaluations},
    )


def run_laplace_pinn(
    problem: Optional[LaplaceControlProblem] = None,
    scale: Optional[ExperimentScale] = None,
    recorder=None,
    jobs: Optional[int] = None,
) -> ControlResult:
    """PINN with the two-step ω line search on Laplace (Fig. 3c–e).

    ``jobs`` fans the ω candidates across worker processes (default: the
    ``$REPRO_JOBS`` resolution of :func:`repro.parallel.resolve_jobs`);
    results are bitwise-identical to the serial search.  The scale's
    ``pinn.compile`` flag (``$REPRO_COMPILE``) runs each candidate's
    training on the compiled tier.
    """
    s = scale or get_scale()
    prob = problem or make_laplace_problem(s)
    cfg = PINNTrainConfig(
        epochs=s.pinn.laplace_epochs,
        lr=s.pinn.laplace_lr,
        n_interior=s.pinn.n_interior,
        n_boundary=s.pinn.n_boundary,
        compile=s.pinn.compile,
    )
    pinn = LaplacePINN(prob, state_hidden=s.pinn.laplace_hidden, config=cfg)
    _tag_trace(recorder, "PINN", "laplace", s, prob.backend)

    def run():
        return omega_line_search(
            pinn, s.pinn.laplace_omegas, recorder=recorder, jobs=jobs
        )

    ls, t, mem = measure_run(run, recorder)
    c = pinn.control_values(ls.params_c)
    # Physical cost of the PINN's control under the reference RBF solver —
    # the PINN surrogate's own flux evaluation is budget-limited (see
    # EXPERIMENTS.md D4), so both numbers are reported.
    dp_eval = LaplaceDP(prob)
    physical_cost = dp_eval.value(c)
    return ControlResult(
        method="PINN",
        problem="laplace",
        control=c,
        final_cost=physical_cost,
        iterations=s.pinn.laplace_epochs,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=[r.cost_history[-1] for r in ls.step1],
        extra={
            "surrogate_cost": ls.best_cost,
            "physical_cost": physical_cost,
            "omegas": list(ls.omegas),
            "best_omega": ls.best_omega,
            "step1_final_losses": [r.loss_history[-1] for r in ls.step1],
            "step1_final_costs": [r.cost_history[-1] for r in ls.step1],
            "step1_final_residuals": [r.residual_history[-1] for r in ls.step1],
            "step2_costs": ls.step2_costs,
            # Index into the ω values that actually ran (ls.omegas), not
            # the requested list — a failed parallel candidate drops out
            # of both ls.omegas and ls.step1, keeping them aligned.
            "epoch_cost_history": ls.step1[
                ls.omegas.index(float(ls.best_omega))
            ].cost_history,
        },
    )


# ----------------------------------------------------------------------
# Navier–Stokes runners
# ----------------------------------------------------------------------
def run_ns_dal(
    problem: Optional[ChannelFlowProblem] = None,
    scale: Optional[ExperimentScale] = None,
    reynolds: Optional[float] = None,
    recorder=None,
) -> ControlResult:
    """DAL on the channel problem (expected to fail at Re = 100)."""
    s = scale or get_scale()
    prob = problem or make_ns_problem(s)
    cfg = _ns_config(s, s.ns.refinements_dal, reynolds)
    oracle = NavierStokesDAL(
        prob, cfg, adjoint_refinements=s.ns.adjoint_refinements,
        recorder=recorder,
    )
    _tag_trace(recorder, "DAL", "navier-stokes", s, prob.backend)

    def run():
        return optimize(oracle, s.ns.iterations, s.ns.lr, recorder=recorder)

    (c, hist), t, mem = measure_run(run, recorder)
    record_oracle_telemetry(recorder, oracle)
    return ControlResult(
        method="DAL",
        problem="navier-stokes",
        control=c,
        final_cost=hist.costs[-1],  # report the *final* cost: the paper's
        # Table 3 reflects where DAL ends up, not its best transient
        iterations=s.ns.iterations,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=hist.costs,
        extra={
            "best_cost": hist.best_cost,
            "reynolds": cfg.reynolds,
            "refinements": cfg.refinements,
            "inflow_y": prob.inflow_y,
        },
    )


def run_ns_dp(
    problem: Optional[ChannelFlowProblem] = None,
    scale: Optional[ExperimentScale] = None,
    reynolds: Optional[float] = None,
    refinements: Optional[int] = None,
    recorder=None,
) -> ControlResult:
    """DP on the channel problem."""
    s = scale or get_scale()
    prob = problem or make_ns_problem(s)
    cfg = _ns_config(
        s, refinements if refinements is not None else s.ns.refinements_dp, reynolds
    )
    oracle = NavierStokesDP(prob, cfg, compile=s.ns.compile)
    _tag_trace(recorder, "DP", "navier-stokes", s, prob.backend)

    def run():
        return optimize(oracle, s.ns.iterations, s.ns.lr, recorder=recorder)

    (c, hist), t, mem = measure_run(run, recorder)
    record_oracle_telemetry(recorder, oracle)
    return ControlResult(
        method="DP",
        problem="navier-stokes",
        control=c,
        final_cost=hist.best_cost,
        iterations=s.ns.iterations,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=hist.costs,
        extra={
            "reynolds": cfg.reynolds,
            "refinements": cfg.refinements,
            "inflow_y": prob.inflow_y,
        },
    )


def run_ns_pinn(
    problem: Optional[ChannelFlowProblem] = None,
    scale: Optional[ExperimentScale] = None,
    recorder=None,
    jobs: Optional[int] = None,
) -> ControlResult:
    """PINN with the two-step ω line search on the channel problem.

    ``jobs`` fans the ω candidates across worker processes; results are
    bitwise-identical to the serial search.  The scale's ``pinn.compile``
    flag (``$REPRO_COMPILE``) runs each candidate's training on the
    compiled tier.
    """
    s = scale or get_scale()
    prob = problem or make_ns_problem(s)
    cfg = PINNTrainConfig(
        epochs=s.pinn.ns_epochs,
        lr=s.pinn.ns_lr,
        n_interior=s.pinn.n_interior,
        n_boundary=s.pinn.n_boundary,
        compile=s.pinn.compile,
    )
    ns_cfg = _ns_config(s, s.ns.refinements_dp)
    pinn = NavierStokesPINN(
        prob, ns_config=ns_cfg, state_hidden=s.pinn.ns_hidden, config=cfg
    )
    _tag_trace(recorder, "PINN", "navier-stokes", s, prob.backend)

    def run():
        return omega_line_search(
            pinn, s.pinn.ns_omegas, recorder=recorder, jobs=jobs
        )

    ls, t, mem = measure_run(run, recorder)
    c = pinn.control_values(ls.params_c)
    # Physical cost of the PINN control under the reference solver
    # (Fig. 1's "good control at the expense of first principles").
    # Reported as the headline cost so Table 3 compares all methods under
    # the same physics; the surrogate's own estimate is kept in extras.
    physical = prob.solve(c, ns_cfg)
    physical_cost = prob.cost(physical.u, physical.v)
    return ControlResult(
        method="PINN",
        problem="navier-stokes",
        control=c,
        final_cost=physical_cost,
        iterations=s.pinn.ns_epochs,
        wall_time_s=t,
        peak_mem_bytes=mem,
        cost_history=[r.cost_history[-1] for r in ls.step1],
        extra={
            "omegas": list(ls.omegas),
            "best_omega": ls.best_omega,
            "step2_costs": ls.step2_costs,
            "surrogate_cost": ls.best_cost,
            "physical_cost": physical_cost,
            "inflow_y": prob.inflow_y,
        },
    )
