"""The stationary incompressible Navier–Stokes channel problem (§3.2).

.. math::

    (\\mathbf u \\cdot \\nabla)\\mathbf u = -\\nabla p
        + \\tfrac{1}{Re} \\nabla^2 \\mathbf u, \\qquad
    \\nabla \\cdot \\mathbf u = 0

in the blowing/suction channel, with boundary conditions

- inflow Γi:  ``u = c(y)`` (the control), ``v = 0``;
- walls:      no-slip ``u = v = 0``;
- blowing Γb: ``u = 0``, ``v = v_b(x) > 0`` (into the domain);
- suction Γs: ``u = 0``, ``v = v_s(x) > 0`` (out through the top);
- outflow Γo: ``∂u/∂n = ∂v/∂n = 0``, ``p = 0``.

Cost (eq. 11): track a parabolic outflow,

.. math::

    \\mathcal J(c) = \\tfrac12 \\int_0^{L_y}
        \\big( |u(L_x, y) - u_t(y)|^2 + |v(L_x, y)|^2 \\big)\\, dy,
    \\qquad u_t(y) = \\tfrac{4}{L_y^2}\\, y (L_y - y).

Solution scheme — the paper's "Chorin-inspired projection approach ...
to iteratively bring the fields to steady states" with ``k`` refinements:

1. **momentum** with frozen advection (Picard linearisation) and lagged
   pressure gradient:
   ``(uⁿ·∇)u* − (1/Re)Δu* = −∇pⁿ`` (componentwise, with each field's BCs);
2. **pressure correction**: ``Δφ = (∇·u*) / dt`` with ``∂φ/∂n = 0``
   except ``φ = 0`` at the outflow;
3. **projection**: ``uⁿ⁺¹ = u* − dt ∇φ`` away from Dirichlet nodes,
   ``pⁿ⁺¹ = pⁿ + φ``.

One method, ``ChannelFlowProblem._step``, runs a refinement on a kernel
set.  :meth:`ChannelFlowProblem.solve_ad` loops over it with tape kernels
(DP — gradients flow through *all* ``k`` refinements, which is why DP's
memory grows with ``k`` as the paper's Table 3 reports), and
:meth:`ChannelFlowProblem.solve` with NumPy kernels, so nothing is taped
(DAL's direct solve and forward evaluation).  Steps 2–3 are one method,
``ChannelFlowProblem._project``, which the DAL adjoint also runs in NumPy;
its reversed-advection momentum system is built from the same operands and
factorised through :meth:`ChannelFlowProblem.momentum_solver`.
The constructor picks the backend's mat-vec and momentum solves once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.autodiff import ops
from repro.autodiff.krylov import krylov_pattern_solve
from repro.autodiff.linalg import RowScaledSystem
from repro.autodiff.linalg import row_scaled_solve as ad_solve
from repro.autodiff.sparse import (
    make_linear_solver,
    sparse_matvec,
    sparse_pattern_solve,
)
from repro.autodiff.tensor import Tensor, tensor
from repro.cloud.base import Cloud
from repro.cloud.channel import ChannelCloud, ChannelGeometry
from repro.obs.profile import span as _span
from repro.pde.discrete import (
    FieldBCs,
    assemble_field_system,
    boundary_rows,
    interior_mask,
    selection_matrix,
)
from repro.rbf.kernels import Kernel, polyharmonic
from repro.rbf.solver import build_operators, check_solver_choice
from repro.utils.quadrature import trapezoid_weights
from repro.utils.validation import check_finite


def poiseuille_profile(y: np.ndarray, ly: float = 1.0) -> np.ndarray:
    """The parabolic profile ``4 y (L_y − y) / L_y²`` (target & initial guess)."""
    y = np.asarray(y, dtype=np.float64)
    return 4.0 * y * (ly - y) / ly**2


def _segment_bump(x: np.ndarray, lo: float, hi: float, amp: float) -> np.ndarray:
    """Parabolic bump on ``[lo, hi]`` vanishing at the ends (C⁰ wall match)."""
    x = np.asarray(x, dtype=np.float64)
    return amp * 4.0 * (x - lo) * (hi - x) / (hi - lo) ** 2


@dataclass
class NSConfig:
    """Solver configuration.

    ``refinements`` is the paper's ``k`` (DAL used 3, DP used 10);
    ``pseudo_dt`` the projection pseudo-timestep.  ``ValueError`` unless
    ``k`` is an int ≥ 1 and ``Re``, ``dt`` are finite and > 0.
    """

    reynolds: float = 100.0
    refinements: int = 10
    pseudo_dt: float = 0.5

    def __post_init__(self) -> None:
        k = self.refinements
        if not isinstance(k, Integral) or k < 1:
            raise ValueError(f"NSConfig.refinements must be an int >= 1, got {k!r}")
        for name in ("reynolds", "pseudo_dt"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"NSConfig.{name} must be finite, > 0, got {value!r}")


@dataclass
class NSState:
    """A flow state with convergence history."""

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    div_history: List[float] = field(default_factory=list)
    update_history: List[float] = field(default_factory=list)


# A backend's taped mat-vec, taped ``[u*, v*]`` solve and NumPy momentum
# factorisation, picked once in ``ChannelFlowProblem.__init__``.  They look up
# ``ad_solve`` and the problem's methods per call, so later wrappers still apply.
class _DenseKernels:
    """Dense backend: ``@`` on the tape and the row-scaled momentum solves."""

    matvec = staticmethod(ops.matmul)

    @staticmethod
    def solve_ad(pr: "ChannelFlowProblem", u, v, reynolds: float, B):
        return ad_solve(*pr.momentum_matrix_ad(u, v, reynolds), B)

    @staticmethod
    def factor(pr: "ChannelFlowProblem", a, b, reynolds: float, robin=None):
        shift = None
        if robin is not None:
            shift = np.zeros(pr.cloud.n)
            shift[pr.outflow] = robin
        system = pr.momentum_system(reynolds)
        return system.factor(pr.mask_int * a, pr.mask_int * b, shift).solve


class _LocalKernels:
    """Local backend: the sparse mat-vec primitive (VJP: the transposed
    product) and the solves on the momentum pattern."""

    matvec = staticmethod(sparse_matvec)

    @staticmethod
    def solve_ad(pr: "ChannelFlowProblem", u, v, reynolds: float, B):
        return pr._pattern_solve(pr.momentum_data(u, v, reynolds), B)

    @staticmethod
    def factor(pr: "ChannelFlowProblem", a, b, reynolds: float, robin=None):
        data = pr.momentum_data(a, b, reynolds)
        if robin is not None:
            data[pr._mom_robin] += robin
        n = pr.cloud.n
        A = sp.csr_matrix((data, (pr._mom_rows, pr._mom_cols)), shape=(n, n))
        return make_linear_solver(A, solver=pr.solver, **pr.solver_opts).solve_numpy


class ChannelFlowProblem:
    """Discretised channel-flow control problem.

    Precomputes the nodal operators, per-field boundary rows, the constant
    pressure-Poisson factorisation, quadrature for the outflow cost, and
    the blowing/suction data.  Both solver paths and all three control
    methods (DAL/PINN/DP) consume one instance.
    """

    def __init__(
        self,
        cloud: Optional[Cloud] = None,
        kernel: Optional[Kernel] = None,
        degree: int = 1,
        geometry: Optional[ChannelGeometry] = None,
        perturbation: float = 0.3,
        backend: str = "dense",
        stencil_size: Optional[int] = None,
        solver: str = "direct",
        solver_opts: Optional[dict] = None,
    ) -> None:
        check_solver_choice(backend, solver, solver_opts)
        self.solver = solver
        self.solver_opts = dict(solver_opts or {})
        self.geometry = geometry or ChannelGeometry()
        self.perturbation = float(perturbation)
        self.cloud = cloud if cloud is not None else ChannelCloud(geometry=self.geometry)
        self.kernel = kernel or polyharmonic(3)
        self.degree = degree
        self.backend = backend
        self.nodal = build_operators(
            self.cloud, self.kernel, degree, backend, stencil_size
        )
        cloud_ = self.cloud
        geo = self.geometry

        self.inflow = cloud_.groups["inflow"]
        self.outflow = cloud_.groups["outflow"]
        self.blowing = cloud_.groups["blowing"]
        self.suction = cloud_.groups["suction"]
        self.walls = np.concatenate(
            [cloud_.groups["wall_bottom"], cloud_.groups["wall_top"]]
        )

        self.inflow_y = cloud_.points[self.inflow, 1]
        self.outflow_y = cloud_.points[self.outflow, 1]
        if np.any(np.diff(self.inflow_y) <= 0) or np.any(np.diff(self.outflow_y) <= 0):
            raise ValueError("inflow/outflow nodes must be sorted by y")
        self.n_control = self.inflow.size

        # Per-field BC kinds.
        wall_groups = ("wall_bottom", "wall_top", "blowing", "suction")
        self.bcs_u = FieldBCs(
            kinds={"inflow": "dirichlet", "outflow": "neumann",
                   **{g: "dirichlet" for g in wall_groups}}
        )
        self.bcs_v = self.bcs_u
        self.bcs_p = FieldBCs(
            kinds={"inflow": "neumann", "outflow": "dirichlet",
                   **{g: "neumann" for g in wall_groups}}
        )

        nd = self.nodal
        self.mask_int = interior_mask(cloud_)
        self.rows_u = boundary_rows(cloud_, nd, self.bcs_u)
        self.rows_p = boundary_rows(cloud_, nd, self.bcs_p)

        # "Free" masks: nodes where the projection correction applies
        # (everywhere except the field's Dirichlet nodes).
        free = np.ones(cloud_.n)
        for g, k in self.bcs_u.kinds.items():
            if k == "dirichlet":
                free[cloud_.groups[g]] = 0.0
        self.free_uv = free

        # Constant pressure system, set up once (dense LU, sparse splu,
        # or the preconditioned Krylov backend, per ``solver``).
        self.pressure_solver = make_linear_solver(
            assemble_field_system(cloud_, nd, nd.lap, self.bcs_p),
            solver=solver, **self.solver_opts,
        )

        # Fixed sparsity pattern of the momentum system (local backend):
        # the union of the masked advection/diffusion stencils, the
        # u-field boundary rows and the outflow diagonal (the DAL
        # adjoint's Robin term).  Momentum matrices for *any* frozen
        # velocity live on this pattern, so every solve assembles a value
        # vector and never touches the structure — which is what makes
        # the VJP w.r.t. the values a cheap gather.
        if backend == "local":
            def _absval(M) -> sp.csr_matrix:
                M = sp.csr_matrix(M).copy()
                M.data = np.abs(M.data)
                return M

            Mint = sp.diags(self.mask_int)
            out = self.outflow
            pattern = (
                _absval(Mint @ nd.dx)
                + _absval(Mint @ nd.dy)
                + _absval(Mint @ nd.lap)
                + _absval(self.rows_u)
                + sp.csr_matrix(
                    (np.ones(out.size), (out, out)), shape=(cloud_.n, cloud_.n)
                )
            ).tocsr()
            pattern.eliminate_zeros()
            rows, cols = pattern.nonzero()
            self._mom_rows = rows.astype(np.int64)
            self._mom_cols = cols.astype(np.int64)
            diag = np.flatnonzero(rows == cols)
            self._mom_robin = diag[np.searchsorted(rows[diag], out)]

            def _on_pattern(M) -> np.ndarray:
                return np.asarray(sp.csr_matrix(M)[rows, cols]).ravel()

            mask_row = self.mask_int[rows]
            self._mom_dx = mask_row * _on_pattern(nd.dx)
            self._mom_dy = mask_row * _on_pattern(nd.dy)
            self._mom_lap = mask_row * _on_pattern(nd.lap)
            self._mom_bc = _on_pattern(self.rows_u)
            self._pattern_solve = partial(
                krylov_pattern_solve if solver == "iterative" else sparse_pattern_solve,
                self._mom_rows, self._mom_cols, (cloud_.n, cloud_.n),
                **self.solver_opts,
            )
            self._kernels = _LocalKernels
        else:
            # ``(Re, system)``: every momentum ``C`` has the unit rows of
            # ``rows_u``, so these ``∂x``/``∂y`` blocks serve any Re.
            base = RowScaledSystem(nd.dx, nd.dy, self.rows_u)
            self._momentum_cache = (None, base)
            self._kernels = _DenseKernels

        # Boundary data: blowing/suction bumps, fixed v-BC vector.
        bx = cloud_.points[self.blowing, 0]
        sx = cloud_.points[self.suction, 0]
        self.v_blow = _segment_bump(bx, geo.seg_lo, geo.seg_hi, perturbation)
        self.v_suck = _segment_bump(sx, geo.seg_lo, geo.seg_hi, perturbation)
        b_v = np.zeros(cloud_.n)
        b_v[self.blowing] = self.v_blow
        b_v[self.suction] = self.v_suck
        self.b_v_fixed = b_v

        # Control scatter: inflow u-values into the u RHS.
        self.S_in = selection_matrix(cloud_.n, self.inflow)

        # Outflow cost pieces.
        self.quad_w = trapezoid_weights(self.outflow_y)
        self.u_target = poiseuille_profile(self.outflow_y, geo.ly)
        self.S_out = selection_matrix(cloud_.n, self.outflow).T  # (n_out, N)

        # Initial guess (paper): parabolic inflow everywhere + matching
        # Poiseuille pressure.
        self.u_init = poiseuille_profile(cloud_.y, geo.ly)
        self.v_init = np.zeros(cloud_.n)

    # ------------------------------------------------------------------
    # Shared assembly pieces
    # ------------------------------------------------------------------
    def default_control(self) -> np.ndarray:
        """The paper's initial inflow guess: the parabolic profile."""
        return poiseuille_profile(self.inflow_y, self.geometry.ly)

    def initial_pressure(self, reynolds: float) -> np.ndarray:
        """Poiseuille-consistent initial pressure ``8 (L_x − x) / (Re L_y²)``."""
        geo = self.geometry
        return 8.0 * (geo.lx - self.cloud.x) / (reynolds * geo.ly**2)

    def momentum_data(self, u, v, reynolds: float):
        """Momentum-system values on the fixed sparsity pattern (local).

        ``u``, ``v`` are ndarrays or Tensors.  On the tape the gather
        ``u[rows]`` records a scatter-add VJP, so gradients flow from the
        matrix values back into the frozen velocity — the sparse
        equivalent of differentiating through dense assembly.
        """
        ur, vr = u[self._mom_rows], v[self._mom_rows]
        return (
            ur * self._mom_dx
            + vr * self._mom_dy
            + (self._mom_bc - self._mom_lap / reynolds)
        )

    def momentum_system(self, reynolds: float) -> RowScaledSystem:
        """The constant operands of the dense momentum system.

        ``A = diag(mask·u)·∂x + diag(mask·v)·∂y + C`` with
        ``C = rows_u − mask·lap/Re``, the only velocity-independent part,
        assembled by :func:`~repro.pde.discrete.assemble_field_system`
        once per Reynolds number (a one-slot cache).  The DAL adjoint's
        Robin diagonal is not part of ``C``: :meth:`momentum_solver` adds
        it at factor time.
        """
        cached_re, system = self._momentum_cache
        if cached_re != reynolds:
            nd = self.nodal
            C = assemble_field_system(
                self.cloud, nd, nd.lap * (-1.0 / reynolds), self.bcs_u
            )
            system = system.with_constant(C)
            self._momentum_cache = (reynolds, system)
        return system

    def momentum_matrix_ad(self, u, v, reynolds: float):
        """Frozen-advection momentum system in row-scaled form (dense).

        Returns ``(s1, s2, system)``, the operands of
        :func:`~repro.autodiff.linalg.row_scaled_solve`: only the row
        scales ``s1 = mask·u`` and ``s2 = mask·v`` depend on the velocity
        (and are on the tape when it is); ``system`` is
        :meth:`momentum_system`.
        """
        mask = self.mask_int
        return mask * u, mask * v, self.momentum_system(reynolds)

    def momentum_solver(
        self, a: np.ndarray, b: np.ndarray, reynolds: float, robin=None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """One factorisation of a momentum-type system, as a NumPy solve.

        The system is ``diag(mask·a)·∂x + diag(mask·b)·∂y + C`` with the
        ``C`` of :meth:`momentum_system`, plus ``robin`` (optional, one value
        per outflow node) on the outflow diagonal, whose rows are the
        normal derivative.  The forward system (:meth:`solve`) is
        ``a = u``, ``b = v`` with no ``robin``; the DAL adjoint's
        reversed-advection system is ``a = −u``, ``b = −v``,
        ``robin = Re·u[out]``.  Dense: the
        :class:`~repro.autodiff.linalg.RowScaledSystem` kernel, the Robin
        term a diagonal shift at factor time; local: the fixed momentum
        pattern, whose outflow diagonal takes the Robin term, through
        :func:`~repro.autodiff.sparse.make_linear_solver` (``splu`` or
        Krylov, per ``solver``).
        """
        return self._kernels.factor(self, a, b, reynolds, robin)

    # ------------------------------------------------------------------
    # The projection loop
    # ------------------------------------------------------------------
    def _project(self, X, dt: float, matvec, pressure_solve):
        """Pressure correction and projection of ``X = [u*, v*]``.

        Returns ``(u, v, φ, ∂x φ, ∂y φ)``; the DAL adjoint carries ``∇σ``
        with the gradient of ``φ``.  ``matvec(M, x)`` applies ``∂x``/``∂y``,
        ``pressure_solve`` solves the pressure system: tape primitives in
        :meth:`solve_ad`, NumPy elsewhere.
        """
        nd = self.nodal
        u_star, v_star = X[:, 0], X[:, 1]
        with _span("ns.pressure", "pde"):
            div = matvec(nd.dx, u_star) + matvec(nd.dy, v_star)
            phi = pressure_solve(self.mask_int * div * (1.0 / dt))

        with _span("ns.projection", "pde"):
            phi_x = matvec(nd.dx, phi)
            u = u_star - dt * (self.free_uv * phi_x)
            phi_y = matvec(nd.dy, phi)
            v = v_star - dt * (self.free_uv * phi_y)
        return u, v, phi, phi_x, phi_y

    def _step(self, u, v, p, b_u_bc, dt: float, kernels):
        """One refinement of the scheme: ``(u, v, p) → (u', v', p')``.

        ``kernels = (matvec, momentum_solve, pressure_solve)``; one
        factorisation in ``momentum_solve(u, v, bu, bv)`` gives ``[u*, v*]``.
        """
        matvec, momentum_solve, pressure_solve = kernels
        nd, mask = self.nodal, self.mask_int
        with _span("ns.momentum", "pde"):
            bu = mask * (-matvec(nd.dx, p)) + b_u_bc
            bv = mask * (-matvec(nd.dy, p)) + self.b_v_fixed
            X = momentum_solve(u, v, bu, bv)
        u, v, phi, _, _ = self._project(X, dt, matvec, pressure_solve)
        return u, v, p + phi

    def solve(self, control: np.ndarray, config: NSConfig) -> NSState:
        """Iterate the projection scheme in NumPy, with its histories.

        Loops over :meth:`_step` on NumPy kernels (DAL's direct solve,
        forward evaluation).  A non-finite control raises ``FloatingPointError``.
        """
        control = np.asarray(control, dtype=np.float64)
        if control.shape != (self.n_control,):
            raise ValueError(
                f"control must have shape ({self.n_control},), got {control.shape}"
            )
        check_finite(control, "control")
        nd, Re = self.nodal, config.reynolds
        # ``[bu, bv]`` column-major, so the projection reads contiguous columns.
        kernels = (operator.matmul, lambda u, v, bu, bv: self.momentum_solver(
            u, v, Re)(np.array([bu, bv]).T), self.pressure_solver.solve_numpy)
        u, v, p = self.u_init, self.v_init, self.initial_pressure(Re)
        b_u_bc = self.S_in @ control
        div_hist, upd_hist = [], []
        for _ in range(config.refinements):
            u_new, v_new, p = self._step(u, v, p, b_u_bc, config.pseudo_dt, kernels)
            upd_hist.append(
                float(max(np.max(np.abs(u_new - u)), np.max(np.abs(v_new - v))))
            )
            u, v = u_new, v_new
            div_hist.append(
                float(np.max(np.abs((nd.dx @ u + nd.dy @ v)[self.cloud.internal])))
            )
            check_finite(u, "u")
            check_finite(v, "v")
        return NSState(u, v, p, div_hist, upd_hist)

    def solve_ad(
        self, control, config: NSConfig
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Projection iterations on the tape; differentiable w.r.t. control.

        Loops over :meth:`_step` on the backend's tape kernels, so gradients
        propagate through assembly *and* solve of every refinement.
        """
        Re, kern = config.reynolds, self._kernels
        kernels = (kern.matvec, lambda u, v, bu, bv: kern.solve_ad(
            self, u, v, Re, ops.stack([bu, bv], axis=1)), self.pressure_solver)
        u, v = tensor(self.u_init), tensor(self.v_init)
        p = tensor(self.initial_pressure(Re))
        b_u_bc = ops.matmul(self.S_in, tensor(control))
        for _ in range(config.refinements):
            u, v, p = self._step(u, v, p, b_u_bc, config.pseudo_dt, kernels)
        return u, v, p

    # ------------------------------------------------------------------
    # Cost functional
    # ------------------------------------------------------------------
    def cost(self, u: np.ndarray, v: np.ndarray) -> float:
        """J from nodal fields (NumPy path; the reduction of :meth:`cost_ad`)."""
        du = u[self.outflow] - self.u_target
        dv = v[self.outflow]
        return float(0.5 * (self.quad_w * (du * du + dv * dv)).sum())

    def cost_ad(self, u, v):
        """J on the tape (DP path)."""
        du = ops.matmul(self.S_out, u) - self.u_target
        dv = ops.matmul(self.S_out, v)
        return 0.5 * ops.sum_(
            self.quad_w * (ops.square(du) + ops.square(dv))
        )

    def outflow_profiles(self, state: NSState) -> Dict[str, np.ndarray]:
        """Outflow ``y``, computed ``(u, v)`` and the target profile."""
        return {
            "y": self.outflow_y,
            "u": state.u[self.outflow],
            "v": state.v[self.outflow],
            "target": self.u_target,
        }
