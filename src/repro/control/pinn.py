"""Physics-informed neural networks for optimal control (§2.3, §3).

Following Mowlavi & Nabi (2023), which the paper reproduces, a *pair* of
networks is trained: a state network ``u_θ`` (the PDE solution surrogate)
and a control network ``c_θ``.  The loss is the multi-objective

.. math::

    \\mathcal L = \\mathcal L_{\\mathcal F}
                + \\mathcal L_{\\mathcal B}(u_\\theta, c_\\theta)
                + \\omega \\, \\mathcal J(u_\\theta),

where the PDE residual and boundary penalties are evaluated at scattered
collocation points (mesh-free, like the RBF methods) and the cost
objective ``J`` is weighted by a coefficient ω found by the **two-step
line search**:

1. for each ω in a log-spaced range, train a fresh ``(u_θ, c_θ)`` pair by
   *alternating* Adam updates on the full loss;
2. since fitting the PDE is imperative, retrain a fresh state network
   ``u'_θ`` for each ω with the step-1 control frozen and *no* ``ωJ``
   term; the pair whose retrained state yields the lowest ``J`` wins.

Spatial derivatives inside the residuals come from
:func:`repro.nn.derivatives.mlp_with_derivatives` (analytic propagation),
so one reverse pass per step yields exact weight gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle, repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import ops
from repro.cloud.halton import halton_sequence
from repro.control.loop import _adam_loop
from repro.nn.derivatives import mlp_with_derivatives
from repro.nn.mlp import MLP
from repro.nn.pytree import ravel_leaves, tree_ravel, value_and_grad_tree
from repro.obs.hooks import record_compile_cache
from repro.obs.profile import span as _span
from repro.obs.recorder import current_recorder
from repro.pde.laplace import (
    LaplaceControlProblem,
    laplace_bottom_data,
    laplace_side_data,
    laplace_target_flux,
)
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig, poiseuille_profile
from repro.utils.quadrature import trapezoid_weights


@dataclass
class PINNTrainConfig:
    """Training hyperparameters (Table 1/2 rows, scaled).

    ``epochs`` follows the paper's piecewise-constant LR schedule; the
    alternating flag switches between joint and alternating updates of the
    two networks.  ``compile`` (the default) routes the loss through
    trace-once compilation (:mod:`repro.autodiff.compile`): the loss
    graph is recorded at the first epoch and compiled to one fused NumPy
    kernel that each subsequent epoch runs over reused buffers.  A
    compiled epoch builds no Tensor or closure: the kernel also yields
    the epoch's cost and residual (pinned aux outputs of the loss), and
    the Adam update is a fixed handful of vector ufuncs over the flat
    parameter vector.  Results are bitwise those of ``compile=False``,
    the eager reference tier.
    """

    epochs: int = 2000
    lr: float = 1e-3
    seed: int = 0
    n_interior: int = 400
    n_boundary: int = 40
    alternating: bool = True
    compile: bool = True


@dataclass
class PINNRunResult:
    """Trained pair for one ω plus per-epoch histories."""

    omega: float
    params_u: Any
    params_c: Any
    loss_history: List[float] = field(default_factory=list)
    cost_history: List[float] = field(default_factory=list)
    residual_history: List[float] = field(default_factory=list)


@dataclass
class LineSearchResult:
    """Outcome of the two-step ω line search.

    ``omegas`` lists the ω values that completed, aligned with ``step1``
    and ``step2_costs``.  Under parallel execution a crashed or failed ω
    task is excluded from the candidate set instead of aborting the
    search; its structured :class:`~repro.parallel.task.TaskResult` is
    kept in ``failures``.
    """

    best_omega: float
    best_cost: float
    step1: List[PINNRunResult]
    step2_costs: List[float]
    params_u_retrained: Any
    params_c: Any
    omegas: List[float] = field(default_factory=list)
    failures: List[Any] = field(default_factory=list)


def _fit(loss_fn, params, config, alternating_keys=None, has_aux=False, trace=None):
    """Train ``params`` through the shared Adam loop, as one flat vector;
    returns the last iterate, the loss history and each epoch's aux row.

    With ``alternating_keys``, epoch ``t`` takes its gradient ``wrt`` key
    ``t % len`` only (the Mowlavi & Nabi alternating scheme): the frozen
    networks' gradients are zero and, compiled, their backward never
    runs.  With ``has_aux`` the loss returns ``(loss, aux)``, both from
    one evaluation (compiled: one kernel run).
    """
    if config.compile:
        # Looked up per call: a benchmark may wrap the factory.
        from repro.autodiff.compile import compiled_value_and_grad_tree

        vg = compiled_value_and_grad_tree(loss_fn, has_aux=has_aux)
    else:
        vg = value_and_grad_tree(loss_fn, has_aux=has_aux)
    flat, unravel = tree_ravel(params)
    wrt = cycle(alternating_keys) if alternating_keys else repeat(None)
    aux_rows: List[Tuple[float, ...]] = []

    def value_and_grad(x):
        val, grads = vg(unravel(x), wrt=next(wrt))
        if has_aux:
            val, aux = val
            aux_rows.append(aux)
        return val, ravel_leaves(grads)

    _, last, history = _adam_loop(value_and_grad, flat, config.epochs, config.lr, trace)
    if trace is not None and config.compile:
        record_compile_cache(vg)
    return unravel(last), history.costs, aux_rows


# ======================================================================
# Shared by both problems
# ======================================================================
class _PINNPair:
    """The state/control network pair and the two line-search steps.

    Subclasses provide ``net_u``, ``net_c``, ``config`` and the loss terms
    ``residual_loss(pu)``, ``boundary_loss(pu, pc)`` and
    ``cost_objective(pu)``.
    """

    def init_params(self, seed: Optional[int] = None) -> Dict[str, Any]:
        """Fresh parameter pair ``{"u": ..., "c": ...}``."""
        seed = self.config.seed if seed is None else seed
        return {
            "u": self.net_u.init_params(seed),
            "c": self.net_c.init_params(seed + 1),
        }

    def loss_terms(self, params: Dict[str, Any], omega: float) -> Tuple[Any, Tuple[Any, Any]]:
        """Full multi-objective loss ``L_F + L_B + ω J`` and two of its
        terms: ``(total, (J, L_F))``, all on one tape.

        The ops run in the order residual, boundary, add, cost, mul, add
        — the order of the plain sum ``L_F + L_B + ω J`` — so the tape, and
        every bit of its gradients, is the sum's.
        """
        pu = params["u"]
        residual = self.residual_loss(pu)
        fit = residual + self.boundary_loss(pu, params["c"])
        cost = self.cost_objective(pu)
        return fit + omega * cost, (cost, residual)

    def loss(self, params: Dict[str, Any], omega: float) -> Any:
        """Full multi-objective loss ``L_F + L_B + ω J``."""
        return self.loss_terms(params, omega)[0]

    # ------------------------------------------------------------------
    def train_pair(
        self,
        omega: float,
        config: Optional[PINNTrainConfig] = None,
        seed=None,
    ) -> PINNRunResult:
        """Line-search step 1: alternating training of ``(u_θ, c_θ)``
        through the shared Adam loop; returns its last iterate.

        The per-epoch cost and residual histories are the aux terms of
        :meth:`loss_terms`, taken from the evaluation that also produced
        the epoch's loss and gradient.  Without ``seed`` the networks
        start from ``config.seed``, as :meth:`retrain_state` does.  The
        installed trace recorder, if any, gets the ``omega`` meta, one
        iteration record per epoch (loss as the cost, the norm of the
        applied gradient) and the loop's run meta.  A non-finite
        gradient ends training at that epoch.
        """
        cfg = config or self.config
        trace = current_recorder()
        if trace is not None:
            trace.set_meta(omega=omega)
        params, hist, aux = _fit(
            lambda p: self.loss_terms(p, omega),
            self.init_params(cfg.seed if seed is None else seed),
            cfg,
            alternating_keys=("u", "c") if cfg.alternating else None,
            has_aux=True,
            trace=trace,
        )
        return PINNRunResult(
            omega=omega,
            params_u=params["u"],
            params_c=params["c"],
            loss_history=hist,
            cost_history=[cost for cost, _ in aux],
            residual_history=[residual for _, residual in aux],
        )

    def retrain_state(
        self,
        params_c,
        config: Optional[PINNTrainConfig] = None,
        seed=None,
    ):
        """Line-search step 2: fresh state net, frozen control, no ωJ,
        through the shared Adam loop; returns ``(params_u, loss_history)``
        of its last iterate.

        Its epochs are not recorded (the trace holds step 1 only); the
        installed watchdog still sees them.  A non-finite gradient ends
        training at that epoch.
        """
        cfg = config or self.config
        # ``seed=0`` must mean seed 0, not "fall back to the config seed"
        # — the parallel line search derives per-task seeds that can
        # legitimately be any integer.
        base_seed = cfg.seed if seed is None else seed
        params = {"u": self.net_u.init_params(base_seed + 7)}

        def forward_loss(p):
            return self.residual_loss(p["u"]) + self.boundary_loss(p["u"], params_c)

        params, hist, _ = _fit(forward_loss, params, cfg)
        return params["u"], hist


# ======================================================================
# Laplace
# ======================================================================
class LaplacePINN(_PINNPair):
    """PINN for the Laplace control problem.

    The paper's architecture: a 3×30 tanh MLP for the state and a small
    MLP for the 1-D control; training points are a scattered (Halton)
    interior cloud plus equispaced boundary points, while evaluation runs
    on the RBF problem's regular grid ("this regularised the PINN and
    improved generalisation").
    """

    def __init__(
        self,
        problem: LaplaceControlProblem,
        state_hidden: Sequence[int] = (30, 30, 30),
        control_hidden: Sequence[int] = (20, 20),
        config: Optional[PINNTrainConfig] = None,
    ) -> None:
        self.problem = problem
        self.config = config or PINNTrainConfig()
        self.net_u = MLP(2, state_hidden, 1)
        self.net_c = MLP(1, control_hidden, 1)
        cfg = self.config

        # Collocation sets.
        self.x_int = halton_sequence(cfg.n_interior, 2)
        nb = cfg.n_boundary
        t = np.linspace(0.0, 1.0, nb)
        self.x_bottom = np.stack([t, np.zeros(nb)], axis=1)
        self.x_left = np.stack([np.zeros(nb), t], axis=1)
        self.x_right = np.stack([np.ones(nb), t], axis=1)
        tt = np.linspace(0.0, 1.0, nb)
        self.x_top = np.stack([tt, np.ones(nb)], axis=1)
        self.top_quad = trapezoid_weights(tt)
        self.bottom_data = laplace_bottom_data(t)
        self.side_data = laplace_side_data(t)
        self.top_target = laplace_target_flux(tt)

    def residual_loss(self, pu) -> Any:
        """Mean-square Laplace residual at interior collocation points."""
        _, _, d2 = mlp_with_derivatives(self.net_u, pu, self.x_int)
        lap = d2[0] + d2[1]
        return ops.mean(ops.square(lap))

    def boundary_loss(self, pu, pc) -> Any:
        """Dirichlet penalties on all four walls (top links to ``c_θ``)."""
        u_b = self.net_u.apply(pu, self.x_bottom)[:, 0]
        u_l = self.net_u.apply(pu, self.x_left)[:, 0]
        u_r = self.net_u.apply(pu, self.x_right)[:, 0]
        u_t = self.net_u.apply(pu, self.x_top)[:, 0]
        c_t = self.net_c.apply(pc, self.x_top[:, 0:1])[:, 0]
        return (
            ops.mean(ops.square(u_b - self.bottom_data))
            + ops.mean(ops.square(u_l - self.side_data))
            + ops.mean(ops.square(u_r - self.side_data))
            + ops.mean(ops.square(u_t - c_t))
        )

    def cost_objective(self, pu) -> Any:
        """``J = ∫ |∂u_θ/∂y(x,1) − cos πx|² dx`` by trapezoid quadrature."""
        _, du, _ = mlp_with_derivatives(self.net_u, pu, self.x_top, need_second=False)
        flux = du[1][:, 0]
        return ops.sum_(self.top_quad * ops.square(flux - self.top_target))

    # ------------------------------------------------------------------
    # Own attributes of each class, so a timing wrapper patched onto one
    # class leaves the other alone.
    train_pair = _PINNPair.train_pair
    retrain_state = _PINNPair.retrain_state

    # ------------------------------------------------------------------
    # Evaluation on the RBF problem's grid (cross-method comparison)
    # ------------------------------------------------------------------
    def control_values(self, params_c) -> np.ndarray:
        """``c_θ`` sampled at the RBF problem's control abscissae."""
        x = self.problem.control_x[:, None]
        return self.net_c.apply(params_c, x).data[:, 0]

    def evaluate_cost(self, params_u) -> float:
        """J of the state surrogate on the test grid (paper's metric)."""
        p = self.problem
        pts = np.stack([p.control_x, np.ones_like(p.control_x)], axis=1)
        _, du, _ = mlp_with_derivatives(self.net_u, params_u, pts, need_second=False)
        flux = du[1].data[:, 0]
        mism = flux - p.target
        return float(p.quad_w @ (mism * mism))

    def state_values(self, params_u, points: np.ndarray) -> np.ndarray:
        """Surrogate state at arbitrary points."""
        return self.net_u.apply(params_u, points).data[:, 0]


# ======================================================================
# Navier–Stokes
# ======================================================================
class NavierStokesPINN(_PINNPair):
    """PINN for the channel-flow control problem.

    State net ``(x, y) → (u, v, p)`` (paper: 5×50 tanh), control net
    ``y → c`` for the inflow velocity.  The loss enforces the momentum and
    continuity residuals, "all Dirichlet and homogeneous Neumann boundary
    penalty terms for the velocity", and the pressure Dirichlet condition
    at the outlet only.
    """

    def __init__(
        self,
        problem: ChannelFlowProblem,
        ns_config: Optional[NSConfig] = None,
        state_hidden: Sequence[int] = (50, 50, 50, 50, 50),
        control_hidden: Sequence[int] = (20, 20),
        config: Optional[PINNTrainConfig] = None,
    ) -> None:
        self.problem = problem
        self.ns_config = ns_config or NSConfig()
        self.config = config or PINNTrainConfig()
        self.net_u = MLP(2, state_hidden, 3)  # (u, v, p)
        self.net_c = MLP(1, control_hidden, 1)
        cfg = self.config
        geo = problem.geometry

        # Interior collocation: Halton scaled to the channel.
        h = halton_sequence(cfg.n_interior, 2)
        self.x_int = h * np.array([geo.lx, geo.ly])

        nb = cfg.n_boundary
        yb = np.linspace(0.0, geo.ly, nb)
        xb = np.linspace(0.0, geo.lx, nb)
        self.x_in = np.stack([np.zeros(nb), yb], axis=1)
        self.x_out = np.stack([np.full(nb, geo.lx), yb], axis=1)
        self.x_bot = np.stack([xb, np.zeros(nb)], axis=1)
        self.x_top = np.stack([xb, np.full(nb, geo.ly)], axis=1)
        self.out_quad = trapezoid_weights(yb)
        self.out_target = poiseuille_profile(yb, geo.ly)

        # Blowing / suction data along the walls (zero off-segment).
        from repro.pde.navier_stokes import _segment_bump

        self.v_bot_data = np.where(
            (xb >= geo.seg_lo) & (xb <= geo.seg_hi),
            _segment_bump(xb, geo.seg_lo, geo.seg_hi, problem.perturbation),
            0.0,
        )
        self.v_top_data = self.v_bot_data.copy()

    def residual_loss(self, pu) -> Any:
        """Momentum + continuity mean-square residuals (interior)."""
        Re = self.ns_config.reynolds
        w, dw, d2w = mlp_with_derivatives(self.net_u, pu, self.x_int)
        u, v = w[:, 0], w[:, 1]
        ux, vx, px = dw[0][:, 0], dw[0][:, 1], dw[0][:, 2]
        uy, vy, py = dw[1][:, 0], dw[1][:, 1], dw[1][:, 2]
        lap_u = d2w[0][:, 0] + d2w[1][:, 0]
        lap_v = d2w[0][:, 1] + d2w[1][:, 1]
        mom_x = u * ux + v * uy + px - (1.0 / Re) * lap_u
        mom_y = u * vx + v * vy + py - (1.0 / Re) * lap_v
        cont = ux + vy
        return (
            ops.mean(ops.square(mom_x))
            + ops.mean(ops.square(mom_y))
            + ops.mean(ops.square(cont))
        )

    def boundary_loss(self, pu, pc) -> Any:
        """Velocity Dirichlet/Neumann penalties + outlet pressure."""
        w_in = self.net_u.apply(pu, self.x_in)
        c_in = self.net_c.apply(pc, self.x_in[:, 1:2])[:, 0]
        w_bot = self.net_u.apply(pu, self.x_bot)
        w_top = self.net_u.apply(pu, self.x_top)
        w_out, dw_out, _ = mlp_with_derivatives(
            self.net_u, pu, self.x_out, need_second=False
        )
        loss = (
            ops.mean(ops.square(w_in[:, 0] - c_in))
            + ops.mean(ops.square(w_in[:, 1]))
            + ops.mean(ops.square(w_bot[:, 0]))
            + ops.mean(ops.square(w_bot[:, 1] - self.v_bot_data))
            + ops.mean(ops.square(w_top[:, 0]))
            + ops.mean(ops.square(w_top[:, 1] - self.v_top_data))
            # Outflow: homogeneous Neumann on u, v; Dirichlet p = 0.
            + ops.mean(ops.square(dw_out[0][:, 0]))
            + ops.mean(ops.square(dw_out[0][:, 1]))
            + ops.mean(ops.square(w_out[:, 2]))
        )
        return loss

    def cost_objective(self, pu) -> Any:
        """Outflow-tracking cost of the surrogate."""
        w = self.net_u.apply(pu, self.x_out)
        du = w[:, 0] - self.out_target
        dv = w[:, 1]
        return 0.5 * ops.sum_(self.out_quad * (ops.square(du) + ops.square(dv)))

    # ------------------------------------------------------------------
    # Own attributes of each class, so a timing wrapper patched onto one
    # class leaves the other alone.
    train_pair = _PINNPair.train_pair
    retrain_state = _PINNPair.retrain_state

    # ------------------------------------------------------------------
    def control_values(self, params_c) -> np.ndarray:
        """``c_θ`` sampled at the RBF problem's inflow nodes."""
        y = self.problem.inflow_y[:, None]
        return self.net_c.apply(params_c, y).data[:, 0]

    def evaluate_cost(self, params_u) -> float:
        """Surrogate cost on the RBF problem's outflow nodes."""
        p = self.problem
        pts = np.stack(
            [np.full_like(p.outflow_y, p.geometry.lx), p.outflow_y], axis=1
        )
        w = self.net_u.apply(params_u, pts).data
        du = w[:, 0] - p.u_target
        dv = w[:, 1]
        return float(0.5 * (p.quad_w @ (du * du + dv * dv)))

    def evaluate_cost_physical(self, params_c, ns_config: Optional[NSConfig] = None) -> float:
        """Cost of the PINN *control* under the reference RBF solver.

        Fig. 1's message — "PINN achieves good control at the expense of
        first principles" — is visible by re-simulating the PINN control
        with the physical solver and comparing to the surrogate's claim.
        """
        cfg = ns_config or self.ns_config
        c = self.control_values(params_c)
        st = self.problem.solve(c, cfg)
        return self.problem.cost(st.u, st.v)


# ======================================================================
# Two-step line search (shared)
# ======================================================================
def _omega_task_key(omega: float) -> str:
    """Stable task identity for one ω candidate (drives seed derivation)."""
    return f"omega={float(omega):.17g}"


def _omega_task(pinn, omega, cfg1, cfg2, seed):
    """One ω candidate, end to end: step-1 pair, step-2 retrain, eval.

    The only per-ω body of the search, serial or parallel.  Module-level
    so the parallel engine can ship it to workers under any start method;
    per-ω results are bitwise equal between serial and parallel execution
    because the seed is an explicit argument, not ambient state.  The
    step-1 epochs go to the installed recorder; in a worker that is the
    attempt's own, which the engine folds into the parent's in ω order.
    """
    with _span("pinn.train_pair", "method", {"omega": float(omega)}):
        run = pinn.train_pair(omega, cfg1, seed=seed)
    with _span("pinn.retrain_state", "method", {"omega": float(omega)}):
        pu_re, _ = pinn.retrain_state(run.params_c, cfg2, seed=seed)
    with _span("eval", "phase"):
        cost = pinn.evaluate_cost(pu_re)
    return {"run": run, "cost": float(cost), "params_u": pu_re}


def omega_line_search(
    pinn,
    omegas: Sequence[float],
    config_step1: Optional[PINNTrainConfig] = None,
    config_step2: Optional[PINNTrainConfig] = None,
    jobs: Optional[int] = None,
) -> LineSearchResult:
    """Run the Mowlavi & Nabi two-step strategy over an ω range.

    The paper tried 11 values (1e-3 … 1e+7) for Laplace, settling on
    ω* = 1e-1, and 9 values (1e-3 … 1e+5) for Navier–Stokes, settling on
    ω* = 1.

    Every ω trains from a seed derived from ``(cfg1.seed, ω)`` — never
    from shared RNG state — so the search is embarrassingly parallel and
    its outcome is independent of execution order.  Each candidate is
    one :func:`_omega_task` run by :class:`repro.parallel.ParallelEngine`
    with ``jobs`` workers (default: ``$REPRO_JOBS``, else 1, which runs
    the candidates one after another in this process); a single ω always
    runs with ``jobs=1``.  A failed ω is dropped from the search and
    recorded in ``LineSearchResult.failures``, whatever ``jobs`` is;
    :class:`~repro.parallel.TaskError` is raised only when every ω
    fails.  Serial and parallel runs, and a one-ω run against the same ω
    inside a longer list, produce bitwise-identical results.  A
    non-finite step-2 cost never beats a finite one.

    The installed trace recorder receives the step-1 training epochs of
    every ω in sequence (epoch indices restart per ω; the ``omega``
    metadata key reflects the last candidate) plus the line-search
    verdict.
    """
    from repro.parallel import ParallelEngine, Task, TaskError
    from repro.parallel.seeding import derive_seed

    if len(omegas) == 0:
        raise ValueError("need at least one omega")
    cfg1 = config_step1 or pinn.config
    cfg2 = config_step2 or cfg1
    engine = ParallelEngine(jobs=jobs if len(omegas) > 1 else 1,
                            root_seed=cfg1.seed)
    tasks = [
        Task(key=_omega_task_key(o), fn=_omega_task,
             args=(pinn, o, cfg1, cfg2,
                   derive_seed(cfg1.seed, _omega_task_key(o))))
        for o in omegas
    ]
    with _span("pinn.line_search", "method", {"jobs": engine.jobs}):
        task_results = engine.run(tasks)
    outcomes = [(o, res.value) for o, res in zip(omegas, task_results) if res.ok]
    failures: List[Any] = [res for res in task_results if not res.ok]
    if not outcomes:
        first = failures[0]
        raise TaskError(
            f"all {len(omegas)} omega tasks failed; first: "
            f"{first.key} -> {first.status} "
            f"({(first.error or {}).get('message', 'no detail')})"
        )

    step1: List[PINNRunResult] = []
    step2_costs: List[float] = []
    omegas_run: List[float] = []
    best = None
    for omega, value in outcomes:
        run, cost, pu_re = value["run"], value["cost"], value["params_u"]
        step1.append(run)
        step2_costs.append(cost)
        omegas_run.append(float(omega))
        # A non-finite cost never beats a finite one (NaN compares false).
        if best is None or (np.isfinite(cost) and not cost >= best[1]):
            best = (omega, cost, pu_re, run.params_c)

    trace = current_recorder()
    if trace is not None:
        trace.set_meta(
            omegas=list(map(float, omegas)),
            best_omega=float(best[0]),
            step2_costs=[float(c) for c in step2_costs],
        )
        if failures:
            trace.set_meta(failed_tasks=[f.to_dict() for f in failures])

    return LineSearchResult(
        best_omega=best[0],
        best_cost=best[1],
        step1=step1,
        step2_costs=step2_costs,
        params_u_retrained=best[2],
        params_c=best[3],
        omegas=omegas_run,
        failures=failures,
    )
