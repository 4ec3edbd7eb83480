"""Finite-difference gradient baseline (paper footnote 11).

Central differences give accurate gradients at ``O(n)`` solves per
evaluation — "efficient in providing accurate gradients for our
Navier–Stokes problem at a reduced memory cost", but scaling linearly
with control dimension where DAL/DP are O(1) solves.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.autodiff.check import numerical_gradient


class FiniteDifferenceOracle:
    """Wrap any scalar cost ``J(c)`` into a central-difference oracle."""

    def __init__(
        self,
        cost_fn: Callable[[np.ndarray], float],
        initial: np.ndarray,
        eps: float = 1e-6,
    ) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.cost_fn = cost_fn
        self._initial = np.asarray(initial, dtype=np.float64)
        self.eps = float(eps)
        self.n_evaluations = 0

    def value(self, c: np.ndarray) -> float:
        """Evaluate the wrapped cost."""
        self.n_evaluations += 1
        return float(self.cost_fn(np.asarray(c, dtype=np.float64)))

    def value_and_grad(self, c: np.ndarray) -> Tuple[float, np.ndarray]:
        """Cost + central-difference gradient (``2n + 1`` solves)."""
        c = np.asarray(c, dtype=np.float64)
        # A copy, so a raising cost leaves the caller's iterate untouched.
        return self.value(c), numerical_gradient(self.value, c.copy(), self.eps)

    def initial_control(self) -> np.ndarray:
        """The starting control supplied at construction."""
        return self._initial.copy()
