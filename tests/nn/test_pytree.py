"""Tests for pytree utilities and the pytree gradient transform."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.nn.pytree import (
    grad_tree,
    tree_flatten,
    tree_leaves,
    tree_map,
    tree_ravel,
    tree_unflatten,
    tree_zip_map,
    value_and_grad_tree,
)


class TestFlattenUnflatten:
    def test_roundtrip_nested(self):
        tree = {"a": [np.ones(2), np.zeros(3)], "b": (np.ones(1),)}
        leaves, treedef = tree_flatten(tree)
        rebuilt = tree_unflatten(treedef, leaves)
        assert set(rebuilt) == {"a", "b"}
        assert isinstance(rebuilt["a"], list)
        assert isinstance(rebuilt["b"], tuple)
        np.testing.assert_array_equal(rebuilt["a"][0], np.ones(2))

    def test_leaf_count(self):
        tree = [{"W": 1, "b": 2}, {"W": 3, "b": 4}]
        assert len(tree_leaves(tree)) == 4

    def test_dict_keys_sorted_deterministically(self):
        leaves1, _ = tree_flatten({"b": 2, "a": 1})
        leaves2, _ = tree_flatten({"a": 1, "b": 2})
        assert leaves1 == leaves2 == [1, 2]

    def test_scalar_is_leaf(self):
        leaves, td = tree_flatten(5.0)
        assert leaves == [5.0]
        assert tree_unflatten(td, [7.0]) == 7.0

    def test_too_many_leaves_raises(self):
        _, td = tree_flatten([1, 2])
        with pytest.raises(ValueError):
            tree_unflatten(td, [1, 2, 3])

    def test_treedef_is_a_structural_cache_key(self):
        _, a = tree_flatten({"u": [np.ones(2), np.ones(1)], "c": (3.0,)})
        _, b = tree_flatten({"c": (7.0,), "u": [np.zeros(5), np.zeros(4)]})
        _, c = tree_flatten({"u": [np.ones(2)], "c": (3.0,)})
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2


class TestRavel:
    def test_flat_order_and_views(self):
        tree = {"b": np.arange(3.0), "a": [np.full((2, 2), 5.0), 7.0]}
        flat, unravel = tree_ravel(tree)
        np.testing.assert_array_equal(flat, [5, 5, 5, 5, 7, 0, 1, 2])
        v = np.arange(8.0)
        out = unravel(v)
        assert out["a"][0].shape == (2, 2) and out["a"][1].shape == ()
        np.testing.assert_array_equal(out["b"], [5.0, 6.0, 7.0])
        assert np.shares_memory(out["b"], v)

    def test_empty_tree(self):
        flat, unravel = tree_ravel({})
        assert flat.shape == (0,)
        assert unravel(flat) == {}


class TestMaps:
    def test_tree_map(self):
        out = tree_map(lambda x: x * 2, {"a": 1, "b": [2, 3]})
        assert out == {"a": 2, "b": [4, 6]}

    def test_tree_zip_map(self):
        a = {"x": 1, "y": 2}
        b = {"x": 10, "y": 20}
        out = tree_zip_map(lambda u, v: u + v, a, b)
        assert out == {"x": 11, "y": 22}

    def test_zip_map_mismatched_structure_raises(self):
        with pytest.raises(ValueError):
            tree_zip_map(lambda u, v: u, [1, 2], [1, 2, 3])


class TestValueAndGradTree:
    def test_simple_quadratic(self):
        params = {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}

        def loss(p):
            return ops.sum_(ops.square(p["w"])) + ops.sum_(p["b"])

        val, grads = value_and_grad_tree(loss)(params)
        assert val == 5.5
        np.testing.assert_allclose(grads["w"], [2.0, 4.0])
        np.testing.assert_allclose(grads["b"], [1.0])

    def test_extra_args_not_differentiated(self):
        def loss(p, data):
            return ops.sum_(p["w"] * data)

        _, grads = value_and_grad_tree(loss)(
            {"w": np.ones(3)}, np.array([1.0, 2.0, 3.0])
        )
        np.testing.assert_allclose(grads["w"], [1.0, 2.0, 3.0])

    def test_unused_leaf_gets_zeros(self):
        def loss(p):
            return ops.sum_(p["used"])

        _, grads = value_and_grad_tree(loss)(
            {"used": np.ones(2), "unused": np.ones(3)}
        )
        np.testing.assert_allclose(grads["unused"], np.zeros(3))

    def test_non_scalar_raises(self):
        with pytest.raises(ValueError, match="scalar"):
            value_and_grad_tree(lambda p: p["w"] * 2)({"w": np.ones(2)})

    def test_has_aux_returns_aux_values(self):
        def loss(p):
            a = ops.sum_(ops.square(p["w"]))
            b = ops.mean(p["w"])
            return a + b, (a, b)

        (val, aux), grads = value_and_grad_tree(loss, has_aux=True)(
            {"w": np.array([1.0, 2.0])}
        )
        assert val == 6.5 and aux == (5.0, 1.5)
        np.testing.assert_allclose(grads["w"], [2.5, 4.5])

    def test_grad_tree_shortcut(self):
        g = grad_tree(lambda p: ops.sum_(ops.square(p[0])))([np.array([3.0])])
        np.testing.assert_allclose(g[0], [6.0])

    def test_nested_layer_structure(self):
        # Structure like MLP params: list of dicts.
        params = [
            {"W": np.ones((2, 2)), "b": np.zeros(2)},
            {"W": np.ones((2, 1)), "b": np.zeros(1)},
        ]

        def loss(p):
            h = ops.matmul(np.ones((1, 2)), p[0]["W"]) + p[0]["b"]
            out = ops.matmul(h, p[1]["W"]) + p[1]["b"]
            return ops.sum_(out)

        val, grads = value_and_grad_tree(loss)(params)
        assert val == 4.0
        assert grads[0]["W"].shape == (2, 2)
        assert grads[1]["b"].shape == (1,)
