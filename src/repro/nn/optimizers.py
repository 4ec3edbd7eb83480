"""First-order optimisers on parameter pytrees.

The paper uses Adam for *all three* methods — not just the PINN but also
DAL and DP, where it "helped increase robustness to noisy gradients at
boundaries due to the Runge phenomenon".  The implementations are
functional: ``step`` consumes and returns explicit state, so the same
optimiser serves network weights (pytrees) and control vectors (bare
arrays, which are just single-leaf pytrees).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.nn.pytree import (
    ravel_leaves,
    tree_leaves,
    tree_map,
    tree_ravel,
    tree_zip_map,
)


def global_grad_norm(grads: Any) -> float:
    """Euclidean norm over all leaves of a gradient pytree."""
    total = 0.0
    for g in tree_leaves(grads):
        g = np.asarray(g)
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_grad_norm(grads: Any, max_norm: float) -> Any:
    """Rescale a gradient pytree so its global norm is at most ``max_norm``."""
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return tree_map(lambda g: np.asarray(g) * scale, grads)


class SGD:
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, lr: float = 1e-2, momentum: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self.momentum = float(momentum)

    def init(self, params: Any) -> Any:
        """Create the velocity state (zeros like params)."""
        if self.momentum == 0.0:
            return None
        return tree_map(lambda p: np.zeros_like(np.asarray(p, dtype=np.float64)), params)

    def step(
        self, params: Any, grads: Any, state: Any, lr: Optional[float] = None
    ) -> Tuple[Any, Any]:
        """One update; returns ``(new_params, new_state)``."""
        eta = self.lr if lr is None else float(lr)
        if self.momentum == 0.0:
            new_params = tree_zip_map(
                lambda p, g: np.asarray(p, dtype=np.float64) - eta * np.asarray(g),
                params,
                grads,
            )
            return new_params, None
        new_state = tree_zip_map(
            lambda v, g: self.momentum * v + np.asarray(g), state, grads
        )
        new_params = tree_zip_map(
            lambda p, v: np.asarray(p, dtype=np.float64) - eta * v,
            params,
            new_state,
        )
        return new_params, new_state


class Adam:
    """Adam (Kingma & Ba) with bias correction.

    State is ``(step_count, m, v)`` with flat moments: a bare array's
    have its shape, a pytree's are one float64 vector over its leaves in
    ``tree_flatten`` order.  A step ravels a pytree into one vector (a
    bare array is used as is) and runs a fixed sequence of ufuncs
    whatever the leaf count.  The update is elementwise, so every element
    gets the bits a per-leaf update would give it.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def init(self, params: Any) -> Tuple[int, np.ndarray, np.ndarray]:
        """Create zeroed first/second-moment accumulators."""
        if isinstance(params, np.ndarray):
            shape = params.shape
        else:
            shape = (sum(np.size(p) for p in tree_leaves(params)),)
        return (0, np.zeros(shape), np.zeros(shape))

    def step(
        self,
        params: Any,
        grads: Any,
        state: Tuple[int, np.ndarray, np.ndarray],
        lr: Optional[float] = None,
    ) -> Tuple[Any, Tuple[int, np.ndarray, np.ndarray]]:
        """One Adam update; returns ``(new_params, new_state)``.

        ``params`` is a bare array or a pytree, and ``grads`` has the same
        structure.  A pytree comes back with every leaf a view of one
        fresh vector.
        """
        eta = self.lr if lr is None else float(lr)
        t, m, v = state
        if isinstance(params, np.ndarray):
            p, g, unravel = params, np.asarray(grads), None
        else:
            p, unravel = tree_ravel(params)
            g = ravel_leaves(grads)
        if g.size != m.size:
            raise ValueError(f"gradient has {g.size} entries for {m.size} parameters")
        g = g.reshape(m.shape)
        t += 1
        m = self.beta1 * m + (1 - self.beta1) * g
        v = self.beta2 * v + (1 - self.beta2) * g**2
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        new = np.asarray(p, dtype=np.float64) - eta * (m / bc1) / (
            np.sqrt(v / bc2) + self.eps
        )
        return (new if unravel is None else unravel(new)), (t, m, v)
