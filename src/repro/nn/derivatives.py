"""Analytic propagation of input-derivatives through an MLP.

PINN losses contain spatial derivatives of the network output —
``∂u/∂x``, ``∂²u/∂x²`` (Laplacian), advection terms, divergence.  With JAX
one nests ``grad`` calls; our tape engine instead propagates the triple

.. math::

    (a, \\; \\partial a/\\partial x_i, \\; \\partial^2 a/\\partial x_i^2)
    \\quad i = 1..d

layer by layer:

- affine layer ``z = a W + b``:  ``z_i' = a_i' W``,  ``z_i'' = a_i'' W``;
- elementwise activation ``a = σ(z)``:
  ``a_i' = σ'(z) z_i'``,
  ``a_i'' = σ''(z) (z_i')² + σ'(z) z_i''``.

The ``d`` directional derivatives are propagated *batched*: the seeds are
stacked into one ``(d, batch, dim)`` tensor, so each layer costs three
matmuls (value, first, second derivative) regardless of ``d`` instead of
``1 + 2d`` — one stacked BLAS call replaces ``d`` small ones and the tape
records ``O(1)`` nodes per layer rather than ``O(d)``.

Because every step is written with autodiff primitives, the result is
itself on the tape: one reverse pass yields exact weight-gradients of any
residual built from ``u``, ``∇u``, ``Δu`` — precisely what PINN training
needs, without nested autodiff.  (Pure second derivatives per coordinate
suffice for every operator in the paper: Laplacian, gradient, divergence,
advection.)
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.autodiff import ops
from repro.autodiff.tensor import ArrayLike, Tensor, tensor
from repro.nn.mlp import MLP

import numpy as np


def mlp_forward(model: MLP, params: Any, x: ArrayLike) -> Tensor:
    """Plain forward pass (alias of :meth:`MLP.apply` for symmetry)."""
    return model.apply(params, x)


def mlp_with_derivatives(
    model: MLP,
    params: Any,
    x: ArrayLike,
    need_second: bool = True,
) -> Tuple[Tensor, List[Tensor], List[Tensor]]:
    """Evaluate the network and its first/second input-derivatives.

    Parameters
    ----------
    model:
        The :class:`~repro.nn.mlp.MLP` architecture.
    params:
        Parameter pytree (arrays or tape tensors).
    x:
        ``(batch, in_dim)`` evaluation points.
    need_second:
        When False, skips the second-derivative propagation (≈30 % cheaper;
        used by first-order residual terms such as the continuity equation).

    Returns
    -------
    (u, du, d2u)
        ``u`` has shape ``(batch, out_dim)``; ``du[i]`` and ``d2u[i]`` are
        ``∂u/∂x_i`` and ``∂²u/∂x_i²`` with the same shape.  ``d2u`` is an
        empty list when ``need_second`` is False.
    """
    xt = tensor(x)
    if xt.ndim != 2 or xt.shape[1] != model.in_dim:
        raise ValueError(
            f"x must have shape (batch, {model.in_dim}), got {xt.shape}"
        )
    batch, d = xt.shape

    act = model.activation
    a = xt
    # Stacked seeds: da[i]/dx_j = δ_ij (a (d, batch, d) identity fan),
    # d2a = 0.  All d directions ride through each layer in one tensor.
    seed = np.zeros((d, batch, d))
    for i in range(d):
        seed[i, :, i] = 1.0
    da = tensor(seed)
    d2a = tensor(np.zeros((d, batch, d))) if need_second else None

    last = model.n_layers - 1
    for li, layer in enumerate(params):
        W, b = layer["W"], layer["b"]
        z = ops.matmul(a, W) + b
        dz = ops.matmul(da, W)
        d2z = ops.matmul(d2a, W) if need_second else None
        if li < last:
            s1 = act.df(z)
            a = act.f(z)
            if need_second:
                s2 = act.d2f(z)
                d2a = s2 * ops.square(dz) + s1 * d2z
            da = s1 * dz
        else:
            a, da, d2a = z, dz, d2z
    du = [da[i] for i in range(d)]
    d2u = [d2a[i] for i in range(d)] if need_second else []
    return a, du, d2u

