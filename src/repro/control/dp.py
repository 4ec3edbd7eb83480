"""Differentiable programming (DP): reverse-mode AD through the solver.

The discretise-then-optimise approach: the whole discrete pipeline —
right-hand-side construction, linear solves, projection refinements, cost
quadrature — runs on the autodiff tape, and one backward pass returns the
*exact* gradient of the discrete cost.  This is the method the paper
finds "extremely effective ... producing the most accurate gradients".

Memory behaviour matches the paper's discussion: the eager tape
(``compile=False``) retains every intermediate of the ``k`` Navier–Stokes
refinements, so peak memory grows with ``k`` (the refinements ablation
sweeps this); the compiled default replays the same graph over reused
buffers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.compile import compiled_value_and_grad
from repro.autodiff.functional import value_and_grad
from repro.obs.hooks import record_compile_cache, record_solver_cache
from repro.pde.laplace import LaplaceControlProblem
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig
from repro.utils.validation import check_finite


def _smoothness_penalty(c, coords: np.ndarray):
    """Discrete H¹-seminorm of the control: Σ ((c_{i+1}−c_i)/Δs)² Δs.

    The paper (§4) observes the DP control is "considerably less smooth
    than the other two" and suggests "penalising the control's variations"
    as the remedy — implemented here as an opt-in regulariser (the paper
    refrained from enabling it to keep the comparison fair, and so do the
    benchmark defaults).
    """
    ds = np.diff(coords)
    diff = c[1:] - c[:-1]
    return ops.sum_(ops.square(diff) / ds)


class LaplaceDP:
    """DP oracle for the Laplace control problem.

    The collocation matrix is constant, so it is factorised once; each
    ``value_and_grad`` costs two triangular solves (forward + adjoint) —
    the same leading cost as one DAL iteration, but with gradients exact
    to machine precision w.r.t. the *discrete* cost.

    The factorisation matches the problem's backend: dense LU for the
    global collocation system, sparse ``splu`` for the RBF-FD system
    (``backend="local"``) — the discrete adjoint identity is storage
    agnostic, so the same reverse pass runs on either.

    ``smoothness_weight`` adds the §4 control-variation penalty to the
    objective (off by default, as in the paper).

    By default (``compile=True``) ``value_and_grad`` runs trace-once
    compilation (:mod:`repro.autodiff.compile`): the cost graph is
    recorded on the first call and compiled to one fused NumPy kernel
    that subsequent iterations run over reused buffers, skipping all
    Tensor/closure construction — the NumPy analogue of wrapping the JAX
    loss in ``jit``.  ``compile=False`` runs the eager tape on every
    call: the reference tier, bitwise equal to the compiled one.
    """

    def __init__(
        self,
        problem: LaplaceControlProblem,
        smoothness_weight: float = 0.0,
        compile: bool = True,
    ) -> None:
        self.problem = problem
        self.solver = problem.factorize()
        self.smoothness_weight = float(smoothness_weight)
        self.compile = bool(compile)
        self._vg = (compiled_value_and_grad if self.compile else value_and_grad)(
            self._cost
        )

    def _cost(self, c, smoothness_weight: float):
        """The traced cost.  The weight is an argument, not an attribute
        read at trace time, so a compiled program keys on its value."""
        p = self.problem
        rhs = ops.matmul(p.S_top, c) + p.b_fixed
        u = self.solver(rhs)
        mismatch = ops.matmul(p.flux_rows, u) - p.target
        j = ops.sum_(p.quad_w * ops.square(mismatch))
        if smoothness_weight > 0.0:
            j = j + smoothness_weight * _smoothness_penalty(c, p.control_x)
        return j

    def _cost_tensor(self, c):
        """The tape-level cost J(c) at the current settings."""
        return self._cost(c, self.smoothness_weight)

    def value(self, c: np.ndarray) -> float:
        """Evaluate J(c) (forward only; tape pruned automatically)."""
        return float(self._cost_tensor(np.asarray(c, dtype=np.float64)).data)

    def value_and_grad(self, c: np.ndarray) -> Tuple[float, np.ndarray]:
        """Exact discrete gradient via one reverse pass."""
        return self._vg(np.asarray(c, dtype=np.float64), self.smoothness_weight)

    def initial_control(self) -> np.ndarray:
        """Zero control (the paper's Laplace initialisation)."""
        return self.problem.zero_control()

    def solve_state(self, c: np.ndarray) -> np.ndarray:
        """The nodal state for a given control (for figures)."""
        return self.solver.solve_numpy(self.problem.rhs(np.asarray(c)))

    def report_telemetry(self) -> None:
        """End-of-run cumulative telemetry: LU and compiled-program cache stats."""
        record_solver_cache(self.solver, "lu-cache")
        if self.compile:
            record_compile_cache(self._vg)


class NavierStokesDP:
    """DP oracle for the channel-flow problem.

    Differentiates through all ``k`` projection refinements, including the
    dependence of the momentum matrix on the previous velocity iterate.
    Compiled by default, like :class:`LaplaceDP`; ``compile=False`` runs
    the eager tape.
    """

    def __init__(
        self,
        problem: ChannelFlowProblem,
        config: Optional[NSConfig] = None,
        smoothness_weight: float = 0.0,
        compile: bool = True,
    ) -> None:
        self.problem = problem
        self.config = config or NSConfig(refinements=10)
        self.smoothness_weight = float(smoothness_weight)
        self.compile = bool(compile)
        self._vg = (compiled_value_and_grad if self.compile else value_and_grad)(
            self._cost
        )

    def _cost(self, c, config: NSConfig, smoothness_weight: float):
        """The traced cost.  ``config`` and the weight are arguments, not
        attributes read at trace time, so a compiled program keys on them."""
        u, v, _ = self.problem.solve_ad(c, config)
        j = self.problem.cost_ad(u, v)
        if smoothness_weight > 0.0:
            j = j + smoothness_weight * _smoothness_penalty(c, self.problem.inflow_y)
        return j

    def _cost_tensor(self, c):
        """The tape-level cost J(c) at the current settings."""
        return self._cost(c, self.config, self.smoothness_weight)

    def value(self, c: np.ndarray) -> float:
        """Evaluate J(c) with the NumPy solver (cheaper, identical value)."""
        c = np.asarray(c, dtype=np.float64)
        state = self.problem.solve(c, self.config)
        j = self.problem.cost(state.u, state.v)
        if self.smoothness_weight > 0.0:
            j += self.smoothness_weight * float(
                _smoothness_penalty(c, self.problem.inflow_y).data
            )
        return j

    def value_and_grad(self, c: np.ndarray) -> Tuple[float, np.ndarray]:
        """Exact discrete gradient through the whole projection loop.  ``c`` is
        checked finite here: a compiled replay never re-runs the traced cost."""
        return self._vg(check_finite(np.asarray(c, dtype=np.float64), "control"),
                        self.config, self.smoothness_weight)

    def initial_control(self) -> np.ndarray:
        """Parabolic inflow (the paper's NS initialisation)."""
        return self.problem.default_control()

    def report_telemetry(self) -> None:
        """End-of-run cumulative telemetry: pressure-LU and compiled-program stats."""
        record_solver_cache(self.problem.pressure_solver, "pressure-lu-cache")
        if self.compile:
            record_compile_cache(self._vg)
