"""The Laplace optimal-control problem of §3.1.

.. math::

    \\Delta u = 0 \\;\\text{in}\\; \\Omega = (0,1)^2, \\quad
    u(x, 1) = c(x), \\quad u(x, 0) = \\sin \\pi x, \\quad
    u(0, y) = u(1, y) = 0,

with the convex cost

.. math::

    \\mathcal J(c) = \\int_0^1
        \\Big| \\frac{\\partial u}{\\partial y}(x, 1) - \\cos \\pi x \\Big|^2
        \\, dx .

The problem has the analytic minimiser (paper, §3.1)

.. math::

    c^*(x) = \\operatorname{sech}(2\\pi) \\sin(2\\pi x)
           + \\tfrac{1}{2\\pi} \\tanh(2\\pi) \\cos(2\\pi x),

used throughout the tests and figures as ground truth.

.. note:: **Reconciliation of a paper typo.**  The boundary data printed
   in the paper's eq. (7) — bottom ``sin πx``, target ``cos πx``, zero
   lateral walls — is *inconsistent with the analytic minimiser the same
   section states*: the given ``(c*, u*)`` pair satisfies bottom data
   ``sin 2πx``, target flux ``cos 2πx`` and lateral traces
   ``(1/2π) sech(2π) sinh(2πy)`` (one can check ``u*(x,0) = sin 2πx``
   exactly).  This matches the source problem in Mowlavi & Nabi (2023).
   We implement the *consistent* version so the analytic optimum really
   is the ground truth the figures compare against; the structure of the
   control problem (Dirichlet control on the top wall, flux-tracking
   cost) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.autodiff.linalg import FactorizedSolver
from repro.autodiff.sparse import make_linear_solver
from repro.cloud.base import Cloud
from repro.cloud.square import SquareCloud
from repro.rbf.kernels import Kernel, polyharmonic
from repro.rbf.solver import build_operators, check_solver_choice
from repro.pde.discrete import (
    FieldBCs,
    assemble_field_system,
    selection_matrix,
)
from repro.utils.quadrature import trapezoid_weights


def laplace_optimal_control(x: np.ndarray) -> np.ndarray:
    """The analytic minimiser ``c*(x)`` of the Laplace control problem."""
    x = np.asarray(x, dtype=np.float64)
    sech = 1.0 / np.cosh(2 * np.pi)
    return sech * np.sin(2 * np.pi * x) + (np.tanh(2 * np.pi) / (2 * np.pi)) * np.cos(
        2 * np.pi * x
    )


def laplace_optimal_state(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The state ``u*(x, y)`` corresponding to the analytic minimiser."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sech = 1.0 / np.cosh(2 * np.pi)
    term1 = (
        0.5
        * sech
        * np.sin(2 * np.pi * x)
        * (np.exp(2 * np.pi * (y - 1)) + np.exp(2 * np.pi * (1 - y)))
    )
    term2 = (
        (1.0 / (4 * np.pi))
        * sech
        * np.cos(2 * np.pi * x)
        * (np.exp(2 * np.pi * y) - np.exp(-2 * np.pi * y))
    )
    return term1 + term2


def laplace_target_flux(x: np.ndarray) -> np.ndarray:
    """The target normal flux ``cos 2πx`` on the top wall.

    (The flux of the stated analytic optimum; see the module note on the
    paper's eq. (7) typo.)
    """
    return np.cos(2 * np.pi * np.asarray(x, dtype=np.float64))


def laplace_bottom_data(x: np.ndarray) -> np.ndarray:
    """The fixed Dirichlet data ``sin 2πx`` on the bottom wall."""
    return np.sin(2 * np.pi * np.asarray(x, dtype=np.float64))


def laplace_side_data(y: np.ndarray) -> np.ndarray:
    """Lateral-wall Dirichlet data ``(1/2π) sech(2π) sinh(2πy)``.

    The trace of the analytic optimal state on ``x = 0`` and ``x = 1``
    (identical on both by periodicity of the x-dependence).
    """
    y = np.asarray(y, dtype=np.float64)
    return (1.0 / (2 * np.pi)) * (1.0 / np.cosh(2 * np.pi)) * np.sinh(2 * np.pi * y)


@dataclass
class LaplaceControlProblem:
    """Discretised Laplace control problem on a square cloud.

    Precomputes everything the DAL/DP/FD oracles share: the (constant)
    collocation system, the top-wall flux rows, the quadrature weights,
    and the control scatter matrix.

    Attributes
    ----------
    cloud:
        The unit-square cloud (all-Dirichlet boundary).
    nodal:
        The operator bundle: dense
        :class:`~repro.rbf.operators.NodalOperators` for
        ``backend="dense"`` (the paper's global collocation), sparse
        :class:`~repro.rbf.local.LocalOperators` for ``backend="local"``
        (RBF-FD stencils).  Both expose ``dx``/``dy``/``lap``/``normal``.
    system:
        The collocation matrix in the backend's storage format — dense
        ``ndarray`` or ``scipy.sparse`` CSR.  :meth:`factorize` builds
        the matching solver for it (the DP/DAL oracles and the serving
        worker all take theirs from there).
    solver:
        ``"direct"`` (cached LU, the default) or ``"iterative"`` (the
        matrix-free Krylov backend — requires ``backend="local"``, since
        the whole point is never materialising a dense system).
    solver_opts:
        Keyword options forwarded to
        :class:`~repro.autodiff.krylov.KrylovSolver` (``tol``,
        ``maxiter``, ``preconditioner``, ``fallback``, ...).  Must be
        ``None``/empty for the direct solver.
    control_x:
        Top-wall node abscissae (control parameterisation: one value per
        top node, i.e. the control is discretised on the boundary nodes,
        exactly as in the paper's RBF framework).
    """

    cloud: Cloud
    kernel: Optional[Kernel] = None
    degree: int = 1
    backend: str = "dense"
    stencil_size: Optional[int] = None
    solver: str = "direct"
    solver_opts: Optional[dict] = None

    def __post_init__(self) -> None:
        check_solver_choice(self.backend, self.solver, self.solver_opts)
        self.kernel = self.kernel or polyharmonic(3)
        self.nodal = build_operators(
            self.cloud, self.kernel, self.degree, self.backend, self.stencil_size
        )
        cloud = self.cloud
        self.top = cloud.groups["top"]
        self.bottom = cloud.groups["bottom"]
        self.left = cloud.groups["left"]
        self.right = cloud.groups["right"]

        # Top nodes sorted by x (generator emits them sorted; assert).
        self.control_x = cloud.points[self.top, 0]
        if np.any(np.diff(self.control_x) <= 0):
            raise ValueError("top-wall nodes must be sorted by x")
        self.n_control = self.top.size

        # Quadrature for J over x ∈ (0, 1): top nodes exclude the corners,
        # so extend weights to the full interval ends for consistency.
        xq = np.concatenate([[0.0], self.control_x, [1.0]])
        wq = trapezoid_weights(xq)
        self.quad_w = wq[1:-1]  # integrand vanishes is *not* assumed; the
        # endpoint contributions use the nearest interior value, a second-
        # order-consistent closure on a uniform grid.
        self.quad_w[0] += wq[0]
        self.quad_w[-1] += wq[-1]

        # Constant system matrix: Laplacian interior rows + unit boundary
        # rows (all four walls Dirichlet).
        bcs = FieldBCs(
            kinds={g: "dirichlet" for g in ("top", "bottom", "left", "right")}
        )
        self.system = assemble_field_system(cloud, self.nodal, self.nodal.lap, bcs)

        # RHS decomposition: b = b_fixed + S_top @ c.
        self.S_top = selection_matrix(cloud.n, self.top)
        b_fixed = np.zeros(cloud.n)
        b_fixed[self.bottom] = laplace_bottom_data(cloud.points[self.bottom, 0])
        b_fixed[self.left] = laplace_side_data(cloud.points[self.left, 1])
        b_fixed[self.right] = laplace_side_data(cloud.points[self.right, 1])
        self.b_fixed = b_fixed

        # Flux rows: ∂u/∂y at the top nodes.  Kept dense on both backends:
        # there are only O(√N) of them and the DP cost quadrature consumes
        # them through the dense-matmul tape primitive.
        flux = self.nodal.dy[self.top]
        self.flux_rows = flux.toarray() if sp.issparse(flux) else flux
        self.target = laplace_target_flux(self.control_x)

    # ------------------------------------------------------------------
    def factorize(self) -> FactorizedSolver:
        """A fresh factorisation of ``system``, per ``solver``/``solver_opts``.

        Each call factorises anew (nothing is cached here), so every
        caller's factorisation and solve counts are its own.
        """
        return make_linear_solver(
            self.system, solver=self.solver, **(self.solver_opts or {})
        )

    def rhs(self, c: np.ndarray) -> np.ndarray:
        """Right-hand side for control values ``c`` (NumPy path).

        ``c`` is one control ``(n_control,)``, giving an ``(n,)`` vector,
        or a stack ``(k, n_control)`` of controls, giving an ``(n, k)``
        block with one column per control.
        """
        c = np.asarray(c, dtype=np.float64)
        if c.ndim not in (1, 2) or c.shape[-1] != self.n_control:
            raise ValueError(
                f"control must have shape ({self.n_control},) or "
                f"(k, {self.n_control}), got {c.shape}"
            )
        if c.ndim == 1:
            return self.b_fixed + self.S_top @ c
        return self.b_fixed[:, None] + self.S_top @ c.T

    def cost_from_state(
        self, u: np.ndarray, target: Optional[np.ndarray] = None
    ) -> Union[float, np.ndarray]:
        """Evaluate J from a nodal state (NumPy path).

        ``u`` is one state ``(n,)``, giving a float, or an ``(n, k)``
        block of states, giving ``(k,)`` costs.  ``target`` replaces the
        problem's target flux: ``(n_control,)`` for every state, or
        ``(n_control, k)`` with one column per state of a block.
        """
        t = self.target if target is None else np.asarray(target, dtype=np.float64)
        if u.ndim == 2 and t.ndim == 1:
            t = t[:, None]
        mismatch = self.flux_rows @ u - t
        j = self.quad_w @ (mismatch * mismatch)
        return float(j) if u.ndim == 1 else j

    def zero_control(self) -> np.ndarray:
        """The paper's initial control (identically zero)."""
        return np.zeros(self.n_control)

    def optimal_control(self) -> np.ndarray:
        """Analytic ``c*`` sampled at the control nodes."""
        return laplace_optimal_control(self.control_x)

    def optimal_state(self) -> np.ndarray:
        """Analytic ``u*`` sampled at all cloud nodes."""
        return laplace_optimal_state(self.cloud.x, self.cloud.y)


def default_laplace_problem(nx: int = 26, **kwargs) -> LaplaceControlProblem:
    """Convenience constructor on a regular ``nx × nx`` grid."""
    return LaplaceControlProblem(SquareCloud(nx), **kwargs)
