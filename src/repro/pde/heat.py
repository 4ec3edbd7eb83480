"""Unsteady heat equation — the paper's "incorporate time" extension.

The paper's conclusion lists time dependence ("to tackle turbulent
flows") as future work.  This module adds the simplest time-dependent
substrate on the same RBF machinery: the heat equation

.. math::

    \\partial_t u = \\kappa \\Delta u + q \\quad \\text{in } \\Omega,
    \\qquad u = g \\text{ on } \\partial\\Omega,

discretised with the θ-scheme (implicit Euler θ=1, Crank–Nicolson θ=½)
on the nodal RBF operators.  The time-step system matrix is constant, so
a single cached LU factorisation drives the whole trajectory — and since
:class:`~repro.autodiff.linalg.LUSolver` is differentiable, DP through
time (the backpropagation-through-time analogue for PDEs) costs one
factorisation plus one triangular solve per step, forward and backward.

The optimal-control demo: recover an initial condition whose evolved
state matches a target at time ``T`` — a classic severely ill-posed
inverse problem that DP regularises naturally through early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.autodiff import ops
from repro.autodiff.linalg import LUSolver
from repro.autodiff.functional import value_and_grad
from repro.autodiff.tensor import Tensor, tensor
from repro.cloud.base import Cloud
from repro.pde.discrete import FieldBCs, assemble_field_system, interior_mask
from repro.rbf.kernels import Kernel, polyharmonic
from repro.rbf.operators import build_nodal_operators


@dataclass
class HeatConfig:
    """Time-integration parameters for the θ-scheme."""

    kappa: float = 1.0
    dt: float = 1e-3
    n_steps: int = 50
    theta: float = 1.0  # 1 → implicit Euler, 0.5 → Crank–Nicolson

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.dt <= 0 or self.n_steps < 1 or self.kappa <= 0:
            raise ValueError("dt, n_steps, kappa must be positive")


class HeatEquationProblem:
    """Dirichlet heat equation on a cloud, with a differentiable stepper.

    The θ-scheme step reads

    .. math::

        (I - \\theta \\, \\kappa \\, dt \\, \\Delta_h) u^{n+1}
        = (I + (1-\\theta) \\kappa \\, dt \\, \\Delta_h) u^n + dt\\, q

    on interior rows, with unit rows holding the (time-constant) boundary
    data.  Both sides use the same nodal Laplacian; the left system is
    factorised once.
    """

    def __init__(
        self,
        cloud: Cloud,
        config: Optional[HeatConfig] = None,
        kernel: Optional[Kernel] = None,
        degree: int = 1,
        boundary_value: float = 0.0,
    ) -> None:
        self.cloud = cloud
        self.config = config or HeatConfig()
        self.kernel = kernel or polyharmonic(3)
        self.nodal = build_nodal_operators(cloud, self.kernel, degree)
        cfg = self.config

        bcs = FieldBCs(kinds={g: "dirichlet" for g in cloud.groups if g != "internal"})
        eye = np.eye(cloud.n)
        lhs = eye - cfg.theta * cfg.kappa * cfg.dt * self.nodal.lap
        self.stepper = LUSolver(assemble_field_system(cloud, self.nodal, lhs, bcs))
        self.mask_int = interior_mask(cloud)
        self.rhs_matrix = self.mask_int[:, None] * (
            eye + (1 - cfg.theta) * cfg.kappa * cfg.dt * self.nodal.lap
        )
        b_bc = np.zeros(cloud.n)
        b_bc[cloud.boundary] = boundary_value
        self.b_bc = b_bc

    # ------------------------------------------------------------------
    def step(self, u) -> Tensor:
        """Advance one θ-scheme step (works on arrays or tape tensors)."""
        rhs = ops.matmul(self.rhs_matrix, u) + self.b_bc
        return self.stepper(rhs)

    def evolve(self, u0, n_steps: Optional[int] = None, record: bool = False):
        """Evolve ``u0`` for ``n_steps``; optionally record the trajectory.

        Returns the final state (and the list of states when ``record``).
        Passing a tape tensor makes the whole trajectory differentiable.
        """
        n = n_steps if n_steps is not None else self.config.n_steps
        u = tensor(u0)
        # Project the initial condition onto the boundary data so the
        # trajectory is consistent from step zero.
        u = ops.mul(u, self.mask_int) + self.b_bc
        states: List[Tensor] = [u]
        for _ in range(n):
            u = self.step(u)
            if record:
                states.append(u)
        return (u, states) if record else u

    # ------------------------------------------------------------------
    # Initial-condition inverse problem (DP through time)
    # ------------------------------------------------------------------
    def terminal_misfit(self, u0, target: np.ndarray):
        """``½ Σ (u(T) − target)²`` over interior nodes, differentiable."""
        uT = self.evolve(u0)
        diff = ops.mul(uT - target, self.mask_int)
        return 0.5 * ops.sum_(ops.square(diff))

    def misfit_value_and_grad(
        self, u0: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """DP-through-time gradient of the terminal misfit w.r.t. ``u0``."""
        return value_and_grad(lambda c: self.terminal_misfit(c, target))(
            np.asarray(u0, dtype=np.float64)
        )


def heat_series_solution(
    x: np.ndarray, y: np.ndarray, t: float, kappa: float = 1.0,
    kx: int = 1, ky: int = 1,
) -> np.ndarray:
    """Separable decay mode ``sin(kπx) sin(kπy) e^{−κ(kx²+ky²)π²t}``.

    An exact solution of the homogeneous-Dirichlet heat equation on the
    unit square, used for verification.
    """
    lam = kappa * (kx**2 + ky**2) * np.pi**2
    return (
        np.sin(kx * np.pi * np.asarray(x))
        * np.sin(ky * np.pi * np.asarray(y))
        * np.exp(-lam * t)
    )
