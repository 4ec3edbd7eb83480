"""Radial-basis-function collocation (the paper's `Updec` substrate).

The interpolant is

.. math::

    \\hat u(x) = \\sum_j \\lambda_j \\, \\phi(\\|x - x_j\\|)
               + \\sum_m \\gamma_m P_m(x),

with :math:`\\phi` a radial kernel (default: the paper's polyharmonic
cubic spline :math:`r^3`, shape-parameter free) and :math:`P_m` appended
monomials up to degree ``n`` (paper: ``n = 1``, i.e. 3 polynomials in 2-D)
subject to the usual moment constraints.

Two equivalent discretisations are provided and cross-validated in the
test suite (``tests/rbf/test_assembly.py``):

- **coefficient space** (:func:`assembly.assemble_collocation_system`)
  — collocate the PDE/BC rows directly on the (λ, γ) unknowns;
- **nodal space** (:mod:`repro.rbf.operators`, :mod:`repro.rbf.local`)
  — precompute nodal differentiation matrices ``D_x, D_y, Δ`` (dense
  global or sparse RBF-FD) so a PDE solve becomes plain matrix algebra
  on nodal values.  :mod:`repro.rbf.system` assembles every nodal
  system from them, and :func:`solver.solve_pde`, both solvers of
  :mod:`repro.rbf.solver`, :func:`local.solve_pde_local` and the
  control problems solve it.  This is the path DAL and DP use: the
  matrices are constant w.r.t. the control, which makes solve caching
  and autodiff (matmul/solve VJPs) efficient.
"""

from repro.rbf.kernels import (
    Kernel,
    polyharmonic,
    gaussian,
    multiquadric,
    get_kernel,
)
from repro.rbf.polynomials import (
    n_poly_terms,
    poly_matrix,
    poly_dx_matrix,
    poly_dy_matrix,
    poly_lap_matrix,
)
from repro.rbf.assembly import (
    interpolation_matrix,
    operator_eval_matrix,
    assemble_collocation_system,
    LinearOperator2D,
)
from repro.rbf.operators import NodalOperators, build_nodal_operators
from repro.rbf.solver import (
    BoundaryCondition,
    LinearPDEProblem,
    LocalRBFSolver,
    RBFSolver,
    solve_pde,
)
from repro.rbf.interpolate import RBFInterpolant, fit_interpolant
from repro.rbf.conditioning import collocation_condition_number
from repro.rbf.local import (
    LocalOperators,
    build_local_operators,
    default_stencil_size,
    solve_pde_local,
)

__all__ = [
    "Kernel",
    "polyharmonic",
    "gaussian",
    "multiquadric",
    "get_kernel",
    "n_poly_terms",
    "poly_matrix",
    "poly_dx_matrix",
    "poly_dy_matrix",
    "poly_lap_matrix",
    "interpolation_matrix",
    "operator_eval_matrix",
    "assemble_collocation_system",
    "LinearOperator2D",
    "NodalOperators",
    "build_nodal_operators",
    "BoundaryCondition",
    "LinearPDEProblem",
    "solve_pde",
    "RBFSolver",
    "LocalRBFSolver",
    "RBFInterpolant",
    "fit_interpolant",
    "collocation_condition_number",
    "LocalOperators",
    "build_local_operators",
    "default_stencil_size",
    "solve_pde_local",
]
