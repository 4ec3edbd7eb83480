"""Optimal control under PDE constraints — the paper's comparison subjects.

Every method exposes the same *oracle* interface
(:class:`~repro.control.problem.CostOracle`): given a discrete control
vector it returns the cost and (for the gradient-based methods) its
gradient.  One Adam loop (:mod:`repro.control.loop`, the only one in
the package) with the paper's piecewise-constant learning-rate schedule
optimises any oracle, and also trains the PINN's networks, so the
DAL/DP/FD/PINN comparisons differ *only* in how the gradient is
computed:

- :mod:`repro.control.dal` — **direct-adjoint looping**: solve the direct
  PDE, solve the analytically derived adjoint PDE, evaluate the continuous
  gradient formula (optimise-then-discretise);
- :mod:`repro.control.dp` — **differentiable programming**: reverse-mode
  AD through the entire discretised solver (discretise-then-optimise);
- :mod:`repro.control.fd` — central finite differences (the paper's
  footnote-11 baseline);
- :mod:`repro.control.pinn` — **physics-informed neural networks** with
  the two-step ω line-search strategy of Mowlavi & Nabi that the paper
  reproduces.
"""

from repro.control.problem import CostOracle, ControlResult
from repro.control.loop import OptimizationHistory, optimize
from repro.control.dal import LaplaceDAL, NavierStokesDAL
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.fd import FiniteDifferenceOracle
from repro.control.newton import LaplaceGaussNewton
from repro.control.pinn import (
    LaplacePINN,
    NavierStokesPINN,
    PINNTrainConfig,
    LineSearchResult,
    omega_line_search,
)

__all__ = [
    "CostOracle",
    "ControlResult",
    "OptimizationHistory",
    "optimize",
    "LaplaceDAL",
    "NavierStokesDAL",
    "LaplaceDP",
    "NavierStokesDP",
    "FiniteDifferenceOracle",
    "LaplaceGaussNewton",
    "LaplacePINN",
    "NavierStokesPINN",
    "PINNTrainConfig",
    "LineSearchResult",
    "omega_line_search",
]
