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

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import ops
from repro.cloud.halton import halton_sequence
from repro.nn.derivatives import mlp_with_derivatives
from repro.nn.mlp import MLP
from repro.nn.optimizers import Adam
from repro.nn.pytree import (
    ravel_leaves,
    tree_flatten,
    tree_leaves,
    tree_map,
    tree_ravel,
    tree_unflatten,
    tree_zip_map,
    value_and_grad_tree,
)
from repro.nn.schedules import paper_schedule
from repro.obs.health import current_watchdog
from repro.obs.hooks import record_compile_cache
from repro.obs.profile import span as _span
from repro.utils.timers import Timer
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
    two networks.  ``compile`` routes the loss through trace-once
    compilation (:mod:`repro.autodiff.compile`): the loss graph is
    recorded at the first epoch and compiled to one fused NumPy kernel
    that each subsequent epoch runs over reused buffers.  A compiled
    epoch builds no Tensor or closure: the kernel also yields the
    epoch's cost and residual (pinned aux outputs of the loss), and the
    Adam update is a fixed handful of vector ufuncs over the flat
    parameter vector.  Results are bitwise those of ``compile=False``.
    """

    epochs: int = 2000
    lr: float = 1e-3
    seed: int = 0
    n_interior: int = 400
    n_boundary: int = 40
    alternating: bool = True
    log_every: int = 0
    compile: bool = False


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


def _train(
    loss_fn,
    params: Dict[str, Any],
    config: PINNTrainConfig,
    alternating_keys: Optional[Sequence[str]] = None,
    has_aux: bool = False,
    recorder=None,
) -> Tuple[Dict[str, Any], List[float], List[Tuple[float, ...]]]:
    """Generic Adam training loop over a dict-of-pytrees parameter set.

    When ``alternating_keys`` is given, epoch ``t`` only applies the
    update to key ``alternating_keys[t % len]`` (the Mowlavi & Nabi
    alternating scheme); gradients for the frozen parts are discarded.

    With ``has_aux`` the loss returns ``(loss, aux)`` (see
    :func:`~repro.nn.pytree.value_and_grad_tree`) and the third return
    value lists each epoch's aux values — read from the same evaluation
    (under ``config.compile``, the same kernel run) that produced the
    loss; without it that list is empty.

    Between epochs the parameters live in one flat vector
    (:func:`~repro.nn.pytree.tree_ravel`): Adam updates it in a fixed
    number of vector ops, and the frozen networks' gradients are zeroed
    as slices of the flat gradient.

    ``recorder`` (a :class:`~repro.obs.recorder.TraceRecorder`, optional)
    receives one iteration record per epoch — loss as the cost, the
    global norm of the *applied* gradient (after alternating masking),
    the scheduled step size, and grad/update phase seconds.  Falsy
    recorders cost one truth test per epoch.
    """
    if config.compile:
        from repro.autodiff.compile import compiled_value_and_grad_tree

        vg = compiled_value_and_grad_tree(loss_fn, has_aux=has_aux)
    else:
        vg = value_and_grad_tree(loss_fn, has_aux=has_aux)
    flat, unravel = tree_ravel(params)
    frozen = _frozen_slices(params, alternating_keys)
    opt = Adam(lr=config.lr)
    state = opt.init(flat)
    schedule = paper_schedule(config.lr)
    history: List[float] = []
    aux_history: List[Tuple[float, ...]] = []
    trace = recorder if recorder else None
    wd = current_watchdog()
    with Timer() as timer:
        for epoch in range(config.epochs):
            if trace is not None:
                timer.mark()
            with _span("grad", "phase"):
                val, grads = vg(unravel(flat))
            if trace is not None:
                t_grad = timer.lap("grad")
            if has_aux:
                val, aux = val
                aux_history.append(aux)
            history.append(val)
            lr = schedule(epoch, config.epochs)
            with _span("update", "phase"):
                g = ravel_leaves(grads)
                if frozen:
                    active = alternating_keys[epoch % len(alternating_keys)]
                    for sl in frozen[active]:
                        g[sl] = 0.0
                flat, state = opt.step(flat, g, state, lr=lr)
            if wd is not None or trace is not None:
                gnorm = float(np.sqrt(g @ g))  # of the applied gradient
            if wd is not None:
                for ev in wd.observe_iteration(epoch, float(val), gnorm):
                    if trace is not None:
                        trace.health_event(
                            ev.check, ev.severity, ev.iteration,
                            ev.value, ev.message,
                        )
            if trace is not None:
                trace.iteration(
                    epoch, float(val), gnorm, lr,
                    phases={"grad": t_grad, "update": timer.lap("update")},
                )
    if trace is not None:
        trace.set_meta(epochs_run=config.epochs, train_wall_time_s=timer.elapsed)
        if config.compile:
            record_compile_cache(trace, vg)
    return unravel(flat), history, aux_history


def _train_batched(
    loss_fn,
    extras: Tuple[Any, ...],
    params_stack: Dict[str, Any],
    n: int,
    config: PINNTrainConfig,
    alternating_keys: Optional[Sequence[str]] = None,
    has_aux: bool = False,
) -> Tuple[Dict[str, Any], List[List[float]], List[Tuple[np.ndarray, ...]]]:
    """Adam loop over N stacked parameter sets via one ``vbatch`` trace.

    The batched counterpart of :func:`_train`: every leaf of
    ``params_stack`` carries a leading axis of length ``n`` and the whole
    fleet trains in one stacked tensor program per epoch —
    ``backward(ones(n))`` seeds each slice with the same cotangent 1.0
    that N independent scalar backwards would, the Adam update and the
    LR schedule are elementwise, and the alternating mask zeroes the same
    keys in every slice, so slice ``i`` of every epoch is bitwise the
    serial run for candidate ``i`` (the batching rules guarantee bitwise
    per-slice forwards and parameter-side VJPs).

    ``extras`` are additional *batched* positional arguments for
    ``loss_fn`` (stacked along axis 0, not differentiated): the per-ω
    weight vector in step 1, the frozen per-ω control parameters in
    step 2.  With ``has_aux`` the third return value lists each epoch's
    aux outputs, each an ``(n,)`` array.  ``config.compile`` is ignored
    here — the batched trace is re-recorded each epoch (one stacked
    program is already far fewer Python dispatches than N eager tapes).
    """
    from repro.autodiff.batching import vbatch
    from repro.autodiff.tensor import Tensor, asdata

    bfn = vbatch(loss_fn, in_axes=(0,) * (1 + len(extras)))
    ones = np.ones(n)

    def vg(ps):
        leaves, treedef = tree_flatten(ps)
        lts = [Tensor(asdata(x), requires_grad=True) for x in leaves]
        out = bfn(tree_unflatten(treedef, lts), *extras)
        aux = ()
        if has_aux:
            out, aux = out
        out.backward(ones)
        g = ravel_leaves(
            [t.grad if t.grad is not None else np.zeros_like(t.data) for t in lts]
        )
        vals = np.asarray(out.data, dtype=np.float64).copy()
        return vals, tuple(np.asarray(a.data, dtype=np.float64).copy() for a in aux), g

    flat, unravel = tree_ravel(params_stack)
    frozen = _frozen_slices(params_stack, alternating_keys)
    opt = Adam(lr=config.lr)
    state = opt.init(flat)
    schedule = paper_schedule(config.lr)
    histories: List[List[float]] = [[] for _ in range(n)]
    aux_history: List[Tuple[np.ndarray, ...]] = []
    for epoch in range(config.epochs):
        with _span("grad", "phase"):
            vals, aux, g = vg(unravel(flat))
        for i in range(n):
            histories[i].append(float(vals[i]))
        if has_aux:
            aux_history.append(aux)
        lr = schedule(epoch, config.epochs)
        with _span("update", "phase"):
            if frozen:
                for sl in frozen[alternating_keys[epoch % len(alternating_keys)]]:
                    g[sl] = 0.0
            flat, state = opt.step(flat, g, state, lr=lr)
    return unravel(flat), histories, aux_history


def _frozen_slices(
    params: Dict[str, Any], alternating_keys: Optional[Sequence[str]]
) -> Dict[str, List[slice]]:
    """For each alternating key, the slices of the flat parameter vector
    (sorted-key ``tree_flatten`` order) that its epochs freeze: those of
    every other key.  Empty without alternation."""
    if not alternating_keys:
        return {}
    spans, lo = {}, 0
    for k in sorted(params):
        hi = lo + sum(np.size(x) for x in tree_leaves(params[k]))
        spans[k] = slice(lo, hi)
        lo = hi
    return {
        active: [sl for k, sl in spans.items() if k != active]
        for active in alternating_keys
    }


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
        recorder=None,
    ) -> PINNRunResult:
        """Line-search step 1: alternating training of ``(u_θ, c_θ)``.

        The per-epoch cost and residual histories are the aux terms of
        :meth:`loss_terms`, taken from the evaluation that also produced
        the epoch's loss and gradient.
        """
        cfg = config or self.config
        if recorder:
            recorder.set_meta(omega=omega)
        params, hist, aux = _train(
            lambda p: self.loss_terms(p, omega),
            self.init_params(seed),
            cfg,
            alternating_keys=("u", "c") if cfg.alternating else None,
            has_aux=True,
            recorder=recorder,
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
        recorder=None,
    ):
        """Line-search step 2: fresh state net, frozen control, no ωJ."""
        cfg = config or self.config
        # ``seed=0`` must mean seed 0, not "fall back to the config seed"
        # — the parallel line search derives per-task seeds that can
        # legitimately be any integer.
        base_seed = cfg.seed if seed is None else seed
        params = {"u": self.net_u.init_params(base_seed + 7)}

        def forward_loss(p):
            return self.residual_loss(p["u"]) + self.boundary_loss(p["u"], params_c)

        params, hist, _ = _train(forward_loss, params, cfg, recorder=recorder)
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


def _stack_trees(trees: Sequence[Any]) -> Any:
    """Stack same-structured pytrees leafwise along a new axis 0."""
    return tree_zip_map(lambda *xs: np.stack([np.asarray(x) for x in xs]), *trees)


def _unstack_tree(stacked: Any, i: int) -> Any:
    """Slice item ``i`` out of a stacked pytree (copies, so the slice
    survives further in-place optimiser updates to the stack)."""
    return tree_map(lambda x: np.asarray(x)[i].copy(), stacked)


def _omega_batch_task(pinn, omegas, cfg1, cfg2, seeds, want_trace):
    """A chunk of ω candidates trained as ONE stacked tensor program.

    The vbatch analogue of looping :func:`_omega_task`: per-ω parameter
    sets are initialised from the same :func:`derive_seed` keys the
    serial and parallel paths use, stacked leafwise, and both line-search
    steps train through :func:`_train_batched` — so slice ``i`` is
    bitwise the serial candidate ``i``, at a fraction of the dispatch
    cost.  Step-2's frozen controls ride along as a stacked non-gradient
    argument; the final cost evaluation is plain per-ω NumPy.  Module
    level so the parallel engine can ship chunks to workers (process ×
    batch two-level parallelism).  ``want_trace`` is accepted for
    signature parity with ``_omega_task``; batched training emits
    profiler spans but no per-epoch trace records.
    """
    n = len(omegas)
    om = np.asarray([float(o) for o in omegas], dtype=np.float64)
    stacked = _stack_trees([pinn.init_params(s) for s in seeds])
    with _span("pinn.train_pair_batched", "method", {"n_omega": n}):
        stacked, hists, aux = _train_batched(
            pinn.loss_terms,
            (om,),
            stacked,
            n,
            cfg1,
            alternating_keys=("u", "c") if cfg1.alternating else None,
            has_aux=True,
        )

    def retrain_loss(p, pc):
        return pinn.residual_loss(p["u"]) + pinn.boundary_loss(p["u"], pc)

    pc_stack = stacked["c"]
    stacked2 = _stack_trees(
        [{"u": pinn.net_u.init_params(s + 7)} for s in seeds]
    )
    with _span("pinn.retrain_state_batched", "method", {"n_omega": n}):
        stacked2, _, _ = _train_batched(
            retrain_loss, (pc_stack,), stacked2, n, cfg2
        )

    values = []
    for i, omega in enumerate(omegas):
        pu_re = _unstack_tree(stacked2["u"], i)
        with _span("eval", "phase"):
            cost = pinn.evaluate_cost(pu_re)
        run = PINNRunResult(
            omega=float(omega),
            params_u=_unstack_tree(stacked["u"], i),
            params_c=_unstack_tree(stacked["c"], i),
            loss_history=hists[i],
            cost_history=[float(j[i]) for j, _ in aux],
            residual_history=[float(r[i]) for _, r in aux],
        )
        values.append(
            {"run": run, "cost": float(cost), "params_u": pu_re, "trace": None}
        )
    return values


def _omega_task(pinn, omega, cfg1, cfg2, seed, want_trace):
    """One ω candidate, end to end: step-1 pair, step-2 retrain, eval.

    Module-level so the parallel engine can ship it to workers under any
    start method.  Identical code runs on the serial path — per-ω results
    are bitwise equal between serial and parallel execution because the
    seed is an explicit argument, not ambient state.
    """
    from repro.obs.recorder import TraceRecorder

    recorder = TraceRecorder() if want_trace else None
    with _span("pinn.train_pair", "method", {"omega": float(omega)}):
        run = pinn.train_pair(omega, cfg1, seed=seed, recorder=recorder)
    with _span("pinn.retrain_state", "method", {"omega": float(omega)}):
        pu_re, _ = pinn.retrain_state(run.params_c, cfg2, seed=seed)
    with _span("eval", "phase"):
        cost = pinn.evaluate_cost(pu_re)
    return {"run": run, "cost": float(cost), "params_u": pu_re, "trace": recorder}


def omega_line_search(
    pinn,
    omegas: Sequence[float],
    config_step1: Optional[PINNTrainConfig] = None,
    config_step2: Optional[PINNTrainConfig] = None,
    recorder=None,
    jobs: Optional[int] = None,
    engine=None,
    batch: bool = False,
) -> LineSearchResult:
    """Run the Mowlavi & Nabi two-step strategy over an ω range.

    The paper tried 11 values (1e-3 … 1e+7) for Laplace, settling on
    ω* = 1e-1, and 9 values (1e-3 … 1e+5) for Navier–Stokes, settling on
    ω* = 1.

    Every ω trains from a seed derived from ``(cfg1.seed, ω)`` — never
    from shared RNG state — so the search is embarrassingly parallel and
    its outcome is independent of execution order.  With ``jobs > 1``
    (or ``$REPRO_JOBS``) the candidates fan out across worker processes
    via :mod:`repro.parallel`; step 2 retrains only the candidates whose
    step-1 worker survived (a crashed or failed ω is dropped from the
    search, recorded in ``LineSearchResult.failures``).  Serial and
    parallel runs produce bitwise-identical ``best_omega`` / costs.

    ``recorder`` receives the step-1 training epochs of every ω in
    sequence (epoch indices restart per ω; the ``omega`` metadata key
    reflects the most recent run) plus the line-search verdict.

    ``batch=True`` vectorises the candidates through
    :func:`repro.autodiff.vbatch`: all ω pairs train as one stacked
    tensor program (one Python dispatch per primitive per epoch instead
    of N), bitwise identical per candidate to the serial loop.  Combined
    with ``jobs > 1`` the candidates are split into contiguous chunks,
    one batched program per worker process — two-level (process × batch)
    parallelism.  Batched training emits profiler spans but no per-epoch
    recorder iterations (the verdict metadata is still recorded); it
    also bypasses ``config.compile``.  Every path — serial, parallel,
    batched, and N_ω == 1 degenerate runs of any of them — derives the
    identical per-ω seed from ``(cfg1.seed, ω)``, so results agree
    bitwise across all of them.
    """
    from repro.parallel import ParallelEngine, TaskError, resolve_jobs
    from repro.parallel.seeding import derive_seed

    if not omegas:
        raise ValueError("need at least one omega")
    cfg1 = config_step1 or pinn.config
    cfg2 = config_step2 or cfg1
    seeds = [derive_seed(cfg1.seed, _omega_task_key(o)) for o in omegas]
    n_jobs = engine.jobs if engine is not None else resolve_jobs(jobs)

    step1: List[PINNRunResult] = []
    step2_costs: List[float] = []
    omegas_run: List[float] = []
    failures: List[Any] = []
    best = None

    if n_jobs > 1 and len(omegas) > 1:
        from repro.parallel.task import Task

        eng = engine or ParallelEngine(jobs=n_jobs, root_seed=cfg1.seed)
        if batch:
            # Process × batch: contiguous ω chunks, one stacked batched
            # program per worker.  Chunk membership cannot change any
            # candidate's result (each slice is bitwise the serial run).
            n_chunks = min(eng.jobs, len(omegas))
            bounds = np.linspace(0, len(omegas), n_chunks + 1).astype(int)
            chunks = [
                (list(omegas[lo:hi]), seeds[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            tasks = [
                Task(
                    key=f"omega_batch[{_omega_task_key(ch[0][0])}"
                    f"..{_omega_task_key(ch[0][-1])}]",
                    fn=_omega_batch_task,
                    args=(pinn, ch[0], cfg1, cfg2, ch[1], False),
                )
                for ch in chunks
            ]
        else:
            tasks = [
                Task(
                    key=_omega_task_key(o),
                    fn=_omega_task,
                    args=(pinn, o, cfg1, cfg2, s, recorder is not None),
                )
                for o, s in zip(omegas, seeds)
            ]
        with _span("pinn.line_search", "method", {"jobs": eng.jobs}):
            task_results = eng.run(tasks)
        outcomes = []
        if batch:
            for (chunk_omegas, _), res in zip(chunks, task_results):
                if res.ok:
                    outcomes.extend(zip(chunk_omegas, res.value))
                else:
                    failures.append(res)
        else:
            for omega, res in zip(omegas, task_results):
                if res.ok:
                    outcomes.append((omega, res.value))
                else:
                    failures.append(res)
        if not outcomes:
            first = failures[0]
            raise TaskError(
                f"all {len(omegas)} omega tasks failed; first: "
                f"{first.key} -> {first.status} "
                f"({(first.error or {}).get('message', 'no detail')})"
            )
    elif batch:
        with _span("pinn.line_search_batched", "method", {"n_omega": len(omegas)}):
            values = _omega_batch_task(
                pinn, list(omegas), cfg1, cfg2, seeds, False
            )
        outcomes = list(zip(omegas, values))
    else:
        # Serial path: stream every ω's epochs straight into the shared
        # recorder (same record stream a parallel run reassembles from
        # worker shards, modulo timing fields).
        outcomes = []
        for omega, seed in zip(omegas, seeds):
            with _span("pinn.train_pair", "method", {"omega": float(omega)}):
                run = pinn.train_pair(omega, cfg1, seed=seed, recorder=recorder)
            with _span("pinn.retrain_state", "method", {"omega": float(omega)}):
                pu_re, _ = pinn.retrain_state(run.params_c, cfg2, seed=seed)
            with _span("eval", "phase"):
                cost = pinn.evaluate_cost(pu_re)
            value = {
                "run": run,
                "cost": float(cost),
                "params_u": pu_re,
                "trace": None,
            }
            outcomes.append((omega, value))

    for omega, value in outcomes:
        run, cost, pu_re = value["run"], value["cost"], value["params_u"]
        if recorder and value["trace"] is not None:
            recorder.absorb(value["trace"])
        step1.append(run)
        step2_costs.append(cost)
        omegas_run.append(float(omega))
        if best is None or cost < best[1]:
            best = (omega, cost, pu_re, run.params_c)

    if recorder:
        recorder.set_meta(
            omegas=list(map(float, omegas)),
            best_omega=float(best[0]),
            step2_costs=[float(c) for c in step2_costs],
        )
        if failures:
            recorder.set_meta(failed_tasks=[f.to_dict() for f in failures])

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
