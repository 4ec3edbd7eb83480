"""Concrete PDE problems built on the RBF substrate.

- :mod:`repro.pde.discrete` — the nodal system builder of
  :mod:`repro.rbf.system` (interior rows, boundary rows) plus
  differentiable scatter via selection matrices, shared by the
  plain-NumPy and autodiff solver paths.
- :mod:`repro.pde.laplace` — the Laplace control problem of §3.1 with its
  analytic optimal control/state pair.
- :mod:`repro.pde.poisson` — manufactured-solution Poisson problems for
  verification.
- :mod:`repro.pde.advection_diffusion` — steady advection–diffusion
  (solver stress test + extension experiments).
- :mod:`repro.pde.navier_stokes` — the stationary incompressible
  Navier–Stokes channel of §3.2, solved with a Chorin-inspired projection
  scheme iterated to steady state, in both NumPy (DAL) and autodiff (DP)
  variants.
"""

from repro.pde.discrete import (
    FieldBCs,
    selection_matrix,
    interior_mask,
    assemble_field_system,
    scatter_boundary_values,
)
from repro.pde.laplace import (
    LaplaceControlProblem,
    laplace_optimal_control,
    laplace_optimal_state,
    laplace_target_flux,
)
from repro.pde.poisson import manufactured_poisson, PoissonCase
from repro.pde.advection_diffusion import advection_diffusion_operator
from repro.pde.navier_stokes import (
    ChannelFlowProblem,
    NSConfig,
    NSState,
    poiseuille_profile,
)
from repro.pde.heat import (
    HeatConfig,
    HeatEquationProblem,
    heat_series_solution,
)

__all__ = [
    "FieldBCs",
    "selection_matrix",
    "interior_mask",
    "assemble_field_system",
    "scatter_boundary_values",
    "LaplaceControlProblem",
    "laplace_optimal_control",
    "laplace_optimal_state",
    "laplace_target_flux",
    "manufactured_poisson",
    "PoissonCase",
    "advection_diffusion_operator",
    "ChannelFlowProblem",
    "NSConfig",
    "NSState",
    "poiseuille_profile",
    "HeatConfig",
    "HeatEquationProblem",
    "heat_series_solution",
]
