"""Direct-adjoint looping (DAL) — optimise-then-discretise.

For each gradient evaluation DAL solves the *direct* PDE, then the
analytically derived *adjoint* PDE, then evaluates the continuous gradient
formula — all discretised with the same RBF machinery.

Laplace (§3.1)
--------------
With ``J(c) = ∫ |u_y(x,1) − cos πx|² dx`` and Dirichlet control on the top
wall, Green's identity yields the adjoint problem

.. math::

    \\Delta \\lambda = 0, \\qquad
    \\lambda(x, 1) = 2\\,(u_y(x,1) - \\cos \\pi x), \\qquad
    \\lambda = 0 \\text{ on the other walls},

and the gradient ``∇J(x) = ∂λ/∂y(x, 1)``.  Because the adjoint system
matrix equals the direct one, a single LU factorisation serves both.

Navier–Stokes (§3.2)
--------------------
The continuous adjoint of the stationary system is the reversed-advection
problem

.. math::

    (-\\mathbf u \\cdot \\nabla)\\boldsymbol\\lambda
    - \\tfrac{1}{Re}\\Delta \\boldsymbol\\lambda
    = -(\\nabla \\mathbf u)^T \\boldsymbol\\lambda + \\nabla \\sigma,
    \\qquad \\nabla \\cdot \\boldsymbol\\lambda = 0,

with ``λ = 0`` on every boundary where the direct velocity is prescribed
and the Robin outflow condition

.. math::

    \\tfrac{1}{Re}\\partial_n \\lambda + (\\mathbf u \\cdot \\mathbf n)
    \\lambda + \\sigma \\mathbf n + (u - u_t,\\; v) = 0 ,

solved with the same projection scheme as the direct problem: one
momentum solve for ``[λx*, λy*]`` per refinement, then the direct
solve's own projection step, ``ChannelFlowProblem._project``.  The
projection returns ``∇φ`` with ``φ``, so ``∇σ`` is carried along with
``σ ← σ − φ`` (``∇σ ← ∇σ − ∇φ`` from ``∇σ₀ = 0``) instead of being
differentiated again: a refinement costs four ``n×n`` mat-vecs (the
divergence and the projection).  The momentum right-hand side vanishes
on every velocity-Dirichlet node, so the condensed dense solve skips
its Dirichlet-block products, and the outflow Robin term is a diagonal
shift added when the one momentum LU is factorised.  The gradient on
the inflow is ``∇J(y) = −(1/Re) ∂λ_x/∂x(0,y) − σ(0,y)``.

The reaction term ``(∇u)ᵀλ`` requires RBF derivatives of the direct
velocity — this is precisely where the paper reports DAL breaking down at
``Re = 100`` (boundary derivative noise, the Runge phenomenon), while a
reduced ``Re = 10`` "led to better solutions with DAL".
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Tuple

import numpy as np

from repro.obs.hooks import record_solver_cache
from repro.obs.profile import span as _span
from repro.obs.recorder import current_recorder
from repro.pde.laplace import LaplaceControlProblem
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig


class LaplaceDAL:
    """DAL oracle for the Laplace control problem.

    Runs on either operator backend: the direct and adjoint systems share
    one factorisation — dense LU for the global collocation matrix,
    sparse ``splu`` for the RBF-FD system (``backend="local"``).
    """

    def __init__(self, problem: LaplaceControlProblem) -> None:
        self.problem = problem
        # Direct and adjoint share the system matrix (Laplace operator,
        # all-Dirichlet rows): one factorisation (or preconditioner,
        # on the iterative backend) for both.
        self.solver = problem.factorize()

    def value(self, c: np.ndarray) -> float:
        """Direct solve + cost quadrature."""
        u = self.solver.solve_numpy(self.problem.rhs(np.asarray(c, dtype=np.float64)))
        return self.problem.cost_from_state(u)

    def _adjoint_rhs(self, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Direct solve, then the top-wall flux mismatch and adjoint RHS."""
        p = self.problem
        with _span("dal.direct", "method"):
            u = self.solver.solve_numpy(p.rhs(np.asarray(c, dtype=np.float64)))
        mismatch = p.flux_rows @ u - p.target
        b_adj = np.zeros(p.cloud.n)
        b_adj[p.top] = 2.0 * mismatch
        return mismatch, b_adj

    def value_and_grad(self, c: np.ndarray) -> Tuple[float, np.ndarray]:
        """One direct + one adjoint solve, then the OTD gradient formula."""
        p = self.problem
        mismatch, b_adj = self._adjoint_rhs(c)
        cost = float(p.quad_w @ (mismatch * mismatch))
        with _span("dal.adjoint", "method"):
            lam = self.solver.solve_numpy(b_adj)

        # Continuous gradient ∇J(x) = ∂λ/∂y(x, 1), discretised with the
        # nodal derivative rows (``flux_rows`` *is* ``dy[top]`` on both
        # backends).  (OTD: no knowledge of the discrete quadrature — its
        # small inconsistency with the discrete J is the hallmark of
        # optimise-then-discretise.)
        with _span("dal.gradient", "method"):
            grad = p.flux_rows @ lam
        return cost, grad

    def initial_control(self) -> np.ndarray:
        """Zero control."""
        return self.problem.zero_control()

    def solve_adjoint(self, c: np.ndarray) -> np.ndarray:
        """Expose the adjoint field (for tests/figures)."""
        return self.solver.solve_numpy(self._adjoint_rhs(c)[1])

    def report_telemetry(self) -> None:
        """End-of-run cumulative telemetry: shared direct/adjoint LU stats."""
        record_solver_cache(self.solver, "lu-cache")


@dataclass
class NSAdjointState:
    """Adjoint velocity/pressure fields with convergence history."""

    lx: np.ndarray
    ly: np.ndarray
    sigma: np.ndarray
    update_history: list


class NavierStokesDAL:
    """DAL oracle for the channel-flow problem.

    The direct solve is :meth:`ChannelFlowProblem.solve`.  The adjoint
    momentum system is the direct one with the advection reversed and a
    Robin diagonal on the outflow rows; it is factorised once per adjoint
    solve through :meth:`ChannelFlowProblem.momentum_solver`, on the
    problem's backend and ``solver`` (dense: the direct system's cached
    constant, with the Robin diagonal added at factor time).
    ``adjoint_refinements`` below 1 raises ``ValueError`` (it would return
    a zero gradient).

    Telemetry: with a trace recorder installed
    (:func:`~repro.obs.recorder.recording`) every adjoint solve emits an
    ``adjoint`` event carrying its final update residual — the
    per-iteration signal behind the paper's DAL-at-``Re=100`` breakdown
    (§3.2): the adjoint stalling or blowing up shows in this residual
    long before the cost curve reveals it.
    """

    def __init__(
        self,
        problem: ChannelFlowProblem,
        config: Optional[NSConfig] = None,
        adjoint_refinements: Optional[int] = None,
    ) -> None:
        self.problem = problem
        self.config = config or NSConfig(refinements=3)
        k = (adjoint_refinements if adjoint_refinements is not None
             else max(3 * self.config.refinements, 15))
        if not isinstance(k, Integral) or k < 1:
            raise ValueError(
                f"NavierStokesDAL.adjoint_refinements must be an int >= 1, got {k!r}"
            )
        self.adjoint_refinements = k

    # ------------------------------------------------------------------
    def value(self, c: np.ndarray) -> float:
        """Direct solve + outflow cost."""
        st = self.problem.solve(np.asarray(c, dtype=np.float64), self.config)
        return self.problem.cost(st.u, st.v)

    def solve_adjoint(
        self, u: np.ndarray, v: np.ndarray
    ) -> NSAdjointState:
        """Solve the adjoint system for a frozen direct flow ``(u, v)``."""
        rec = current_recorder()
        t_adj0 = time.perf_counter() if rec is not None else 0.0
        pr = self.problem
        nd, mask, cfg = pr.nodal, pr.mask_int, self.config
        Re, dt = cfg.reynolds, cfg.pseudo_dt
        n = pr.cloud.n

        # RBF derivatives of the direct velocity — the noisy ingredient.
        ux, uy = nd.dx @ u, nd.dy @ u
        vx, vy = nd.dx @ v, nd.dy @ v

        # Adjoint momentum system: reversed advection, the direct system's
        # Dirichlet and outflow-normal rows, plus the outflow Robin term
        # Re (u·n) with n = (1, 0).  One factorisation for every refinement.
        out = pr.outflow
        solve_sys = pr.momentum_solver(-u, -v, Re, robin=Re * u[out])
        solve_pressure = pr.pressure_solver.solve_numpy

        lx = np.zeros(n)
        ly = np.zeros(n)
        sigma = np.zeros(n)
        sx = np.zeros(n)  # ∂x σ and ∂y σ, carried with σ
        sy = np.zeros(n)
        mismatch_u = u[out] - pr.u_target
        mismatch_v = v[out]
        hist = []

        for _ in range(self.adjoint_refinements):
            bx = mask * (-(lx * ux + ly * vx) + sx)
            by = mask * (-(lx * uy + ly * vy) + sy)
            # Outflow Robin data (σ lagged):  n = (1, 0).
            bx[out] = -Re * (sigma[out] + mismatch_u)
            by[out] = -Re * mismatch_v
            # [λx*, λy*] in one solve; column-major, so the projection's
            # mat-vecs read contiguous columns.
            X = solve_sys(np.array([bx, by]).T)
            lx_new, ly_new, phi, phi_x, phi_y = pr._project(
                X, dt, operator.matmul, solve_pressure
            )
            sigma = sigma - phi  # +∇σ convention: opposite sign to p
            sx = sx - phi_x
            sy = sy - phi_y

            hist.append(
                float(
                    max(np.max(np.abs(lx_new - lx)), np.max(np.abs(ly_new - ly)))
                )
            )
            lx, ly = lx_new, ly_new
            if not (np.all(np.isfinite(lx)) and np.all(np.isfinite(ly))):
                break  # adjoint blow-up: report as-is (the failure mode)

        if rec is not None:
            rec.solver_event(
                "ns-adjoint",
                "adjoint",
                n=n,
                seconds=time.perf_counter() - t_adj0,
                residual=hist[-1] if hist else None,
            )
        return NSAdjointState(lx=lx, ly=ly, sigma=sigma, update_history=hist)

    def value_and_grad(self, c: np.ndarray) -> Tuple[float, np.ndarray]:
        """Direct solve, adjoint solve, continuous gradient formula."""
        pr = self.problem
        c = np.asarray(c, dtype=np.float64)
        with _span("dal.direct", "method"):
            st = pr.solve(c, self.config)
        cost = pr.cost(st.u, st.v)
        with _span("dal.adjoint", "method"):
            adj = self.solve_adjoint(st.u, st.v)
        nd = pr.nodal
        inflow = pr.inflow
        # ∇J(y) = −(1/Re) ∂λx/∂x (0, y) − σ(0, y)
        with _span("dal.gradient", "method"):
            dlx_dx = nd.dx @ adj.lx
            grad = -(1.0 / self.config.reynolds) * dlx_dx[inflow] - adj.sigma[inflow]
        return cost, grad

    def initial_control(self) -> np.ndarray:
        """Parabolic inflow."""
        return self.problem.default_control()

    def report_telemetry(self) -> None:
        """End-of-run cumulative telemetry: pressure-LU cache stats."""
        record_solver_cache(self.problem.pressure_solver, "pressure-lu-cache")
