"""Tests for analytic input-derivative propagation (the PINN workhorse)."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.nn.derivatives import mlp_forward, mlp_with_derivatives
from repro.nn.mlp import MLP
from repro.nn.pytree import tree_flatten, tree_unflatten, value_and_grad_tree

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def net():
    m = MLP(2, (12, 12), 2)
    return m, m.init_params(5)


def fd_input_derivatives(model, params, X, i, eps=1e-5):
    Xp, Xm = X.copy(), X.copy()
    Xp[:, i] += eps
    Xm[:, i] -= eps
    f = lambda pts: model.apply(params, pts).data
    d1 = (f(Xp) - f(Xm)) / (2 * eps)
    d2 = (f(Xp) - 2 * f(X) + f(Xm)) / eps**2
    return d1, d2


class TestValues:
    def test_value_matches_apply(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (6, 2))
        u, _, _ = mlp_with_derivatives(m, p, X)
        np.testing.assert_allclose(u.data, m.apply(p, X).data, rtol=1e-14)

    def test_mlp_forward_alias(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (4, 2))
        np.testing.assert_array_equal(
            mlp_forward(m, p, X).data, m.apply(p, X).data
        )

    def test_shapes(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (7, 2))
        u, du, d2u = mlp_with_derivatives(m, p, X)
        assert u.shape == (7, 2)
        assert len(du) == 2 and len(d2u) == 2
        assert all(d.shape == (7, 2) for d in du + d2u)

    def test_need_second_false_skips(self, net):
        m, p = net
        X = RNG.uniform(-1, 1, (3, 2))
        _, du, d2u = mlp_with_derivatives(m, p, X, need_second=False)
        assert len(du) == 2
        assert d2u == []

    def test_bad_input_shape_raises(self, net):
        m, p = net
        with pytest.raises(ValueError):
            mlp_with_derivatives(m, p, np.zeros((5, 3)))


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("i", [0, 1])
    def test_first_derivatives(self, net, i):
        m, p = net
        X = RNG.uniform(-1, 1, (10, 2))
        _, du, _ = mlp_with_derivatives(m, p, X)
        fd1, _ = fd_input_derivatives(m, p, X, i)
        np.testing.assert_allclose(du[i].data, fd1, atol=1e-8)

    @pytest.mark.parametrize("i", [0, 1])
    def test_second_derivatives(self, net, i):
        m, p = net
        X = RNG.uniform(-1, 1, (10, 2))
        _, _, d2u = mlp_with_derivatives(m, p, X)
        _, fd2 = fd_input_derivatives(m, p, X, i)
        np.testing.assert_allclose(d2u[i].data, fd2, atol=5e-5)

    def test_laplacian_of_harmonic_combination(self):
        # A single linear layer (no activation) has zero second derivative.
        m = MLP(2, (), 1)
        p = m.init_params(0)
        X = RNG.uniform(-1, 1, (5, 2))
        _, _, d2u = mlp_with_derivatives(m, p, X)
        np.testing.assert_allclose(d2u[0].data, 0.0, atol=1e-14)
        np.testing.assert_allclose(d2u[1].data, 0.0, atol=1e-14)


class TestWeightGradients:
    def test_residual_loss_weight_gradient(self, net):
        """One reverse pass through derivative propagation == FD on weights."""
        m, p = net
        X = RNG.uniform(-1, 1, (8, 2))

        def loss(params):
            u, du, d2u = mlp_with_derivatives(m, params, X)
            lap = d2u[0] + d2u[1]
            return ops.mean(ops.square(lap)) + ops.mean(ops.square(du[0]))

        val, grads = value_and_grad_tree(loss)(p)
        leaves, td = tree_flatten(p)
        gleaves, _ = tree_flatten(grads)
        h = 1e-6
        for li, idx in [(0, (0, 0)), (2, (3, 1)), (4, (1, 0))]:
            lp = [np.array(x, copy=True) for x in leaves]
            lm = [np.array(x, copy=True) for x in leaves]
            lp[li][idx] += h
            lm[li][idx] -= h
            fp = float(loss(tree_unflatten(td, lp)).data)
            fm = float(loss(tree_unflatten(td, lm)).data)
            fd = (fp - fm) / (2 * h)
            assert abs(fd - gleaves[li][idx]) < 1e-6 * max(1.0, abs(fd))

