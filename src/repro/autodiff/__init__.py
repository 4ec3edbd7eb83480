"""Reverse-mode automatic differentiation engine (pure NumPy).

This subpackage is the repository's substitute for JAX (which the paper's
``Updec`` framework builds on, and which is unavailable offline).  It
provides:

- :class:`~repro.autodiff.tensor.Tensor` — a NumPy array wrapped with a
  dynamically built computation tape.
- A complete set of differentiable primitives in
  :mod:`repro.autodiff.ops` (arithmetic, reductions, indexing,
  concatenation, elementwise transcendentals, ``matmul``).
- Differentiable linear algebra in :mod:`repro.autodiff.linalg`
  (``solve`` with the adjoint-system VJP, the key primitive enabling
  *discretise-then-optimise* differentiable programming through an implicit
  PDE solver).
- Function transforms in :mod:`repro.autodiff.functional` —
  :func:`grad`, :func:`value_and_grad`, :func:`jacobian` — mirroring the JAX
  API used by the paper.  Like JAX's one ``value_and_grad`` over pytree
  arguments, every value-and-grad transform, flat or over a parameter
  tree (:func:`repro.nn.pytree.value_and_grad_tree`), eager or compiled,
  runs one traced call (``repro.nn.pytree._trace``); the flat ones pass
  it the tuple of their differentiated arguments.
- Trace-once compilation in :mod:`repro.autodiff.compile` —
  :func:`compiled_value_and_grad` and
  :func:`compiled_value_and_grad_tree` record the tape on the first call,
  lower it (:mod:`repro.autodiff.lowering`: SSA-style IR, fused
  elementwise chains, dead buffers dropped, an arena of reusable scratch
  slots) and emit one straight-line NumPy kernel per program
  (:mod:`repro.autodiff.codegen`) that later calls run over reused
  buffers — the NumPy analogue of ``jax.jit`` around a loss (used by the
  DP and PINN hot loops by default, ``compile=True``).  Programs
  that cannot be lowered run on the eager tape.
- Numerical gradient checking in :mod:`repro.autodiff.check`.

Gradients are exact (to floating point) wherever defined: the engine applies
the chain rule over primitive vector-Jacobian products, exactly as JAX's
``grad`` would, which is what makes the DP method's gradients the "gold
standard" the paper describes.
"""

from repro.autodiff.tensor import Tensor, tensor, is_tensor, asdata
from repro.autodiff import ops
from repro.autodiff.batching import (
    BatchTracer,
    BatchedMask,
    batch_size,
    declared_fallbacks,
    has_batch_rule,
    is_batching,
    registered_primitives,
    vbatch,
)
from repro.autodiff.ops import (
    abs_,
    add,
    amax,
    arctan,
    clip,
    concatenate,
    cos,
    cosh,
    div,
    dot,
    exp,
    getitem,
    log,
    matmul,
    maximum,
    mean,
    minimum,
    mul,
    neg,
    power,
    reshape,
    sigmoid,
    sin,
    sinh,
    sqrt,
    square,
    stack,
    sub,
    sum_,
    tanh,
    transpose,
    where,
)
from repro.autodiff.linalg import (
    solve,
    row_scaled_solve,
    RowScaledSystem,
    lstsq,
    norm,
    LUSolver,
)
from repro.autodiff.sparse import (
    SparseLUSolver,
    make_linear_solver,
    sparse_matvec,
    sparse_pattern_solve,
    sparse_solve,
)
from repro.autodiff.functional import (
    grad,
    value_and_grad,
    jacobian,
    stop_gradient,
)
from repro.autodiff.compile import (
    CompileError,
    ReplayProfile,
    compiled_value_and_grad,
    compiled_value_and_grad_tree,
)
from repro.autodiff.lowering import (
    ArenaPlanner,
    LoweredProgram,
    LoweredStats,
    LoweringError,
    lower,
    unbroadcast_plan,
)
from repro.autodiff.codegen import CodegenProgram, codegen_program
from repro.autodiff.check import (
    numerical_gradient,
    check_gradient,
    directional_numerical_derivative,
)

__all__ = [
    "Tensor",
    "tensor",
    "is_tensor",
    "asdata",
    "ops",
    "BatchTracer",
    "BatchedMask",
    "batch_size",
    "declared_fallbacks",
    "has_batch_rule",
    "is_batching",
    "registered_primitives",
    "vbatch",
    "abs_",
    "add",
    "amax",
    "arctan",
    "clip",
    "concatenate",
    "cos",
    "cosh",
    "div",
    "dot",
    "exp",
    "getitem",
    "log",
    "matmul",
    "maximum",
    "mean",
    "minimum",
    "mul",
    "neg",
    "power",
    "reshape",
    "sigmoid",
    "sin",
    "sinh",
    "sqrt",
    "square",
    "stack",
    "sub",
    "sum_",
    "tanh",
    "transpose",
    "where",
    "solve",
    "row_scaled_solve",
    "RowScaledSystem",
    "LUSolver",
    "SparseLUSolver",
    "make_linear_solver",
    "sparse_solve",
    "sparse_matvec",
    "sparse_pattern_solve",
    "lstsq",
    "norm",
    "grad",
    "value_and_grad",
    "jacobian",
    "stop_gradient",
    "CompileError",
    "ReplayProfile",
    "compiled_value_and_grad",
    "compiled_value_and_grad_tree",
    "ArenaPlanner",
    "LoweredProgram",
    "LoweredStats",
    "LoweringError",
    "lower",
    "unbroadcast_plan",
    "CodegenProgram",
    "codegen_program",
    "numerical_gradient",
    "check_gradient",
    "directional_numerical_derivative",
]
