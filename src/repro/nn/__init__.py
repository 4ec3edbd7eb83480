"""Neural-network library for the PINN experiments.

Provides the pieces the paper's PINN implementation needs:

- :mod:`repro.nn.pytree` — nested-container utilities (JAX-pytree style).
- :mod:`repro.nn.init` — Glorot/He weight initialisation.
- :mod:`repro.nn.mlp` — multilayer perceptrons (the paper's 3×30 and 5×50
  tanh networks).
- :mod:`repro.nn.derivatives` — analytic propagation of first and second
  input-derivatives through an MLP, built from autodiff primitives so the
  weight-gradient of a PDE residual comes out of a single reverse pass
  (substitute for JAX's nested ``grad``).
- :mod:`repro.nn.optimizers` — SGD and Adam on pytrees of parameters.
- :mod:`repro.nn.schedules` — the paper's piecewise-constant learning-rate
  schedule (÷10 at 50 % completion, ÷10 again at 75 %).
"""

from repro.nn.pytree import (
    tree_map,
    tree_flatten,
    tree_unflatten,
    tree_zip_map,
    tree_leaves,
    tree_ravel,
    ravel_leaves,
    value_and_grad_tree,
    grad_tree,
)
from repro.nn.init import glorot_normal, glorot_uniform, he_normal, zeros_init
from repro.nn.mlp import MLP
from repro.nn.activations import get_activation, ACTIVATIONS
from repro.nn.derivatives import mlp_forward, mlp_with_derivatives
from repro.nn.optimizers import SGD, Adam, clip_grad_norm, global_grad_norm
from repro.nn.schedules import (
    ConstantSchedule,
    PiecewiseConstantSchedule,
    paper_schedule,
)

__all__ = [
    "tree_map",
    "tree_flatten",
    "tree_unflatten",
    "tree_zip_map",
    "tree_leaves",
    "tree_ravel",
    "ravel_leaves",
    "value_and_grad_tree",
    "grad_tree",
    "glorot_normal",
    "glorot_uniform",
    "he_normal",
    "zeros_init",
    "MLP",
    "get_activation",
    "ACTIVATIONS",
    "mlp_forward",
    "mlp_with_derivatives",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
    "ConstantSchedule",
    "PiecewiseConstantSchedule",
    "paper_schedule",
]
