"""Property-based tests of NN-library invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn.mlp import MLP
from repro.nn.optimizers import Adam, clip_grad_norm, global_grad_norm
from repro.nn.pytree import (
    ravel_leaves,
    tree_flatten,
    tree_map,
    tree_unflatten,
    tree_zip_map,
)
from repro.nn.schedules import paper_schedule

SAFE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, width=64)


class TestPytreeRoundtrip:
    @given(
        st.recursive(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(st.sampled_from("abcd"), children, max_size=3),
            ),
            max_leaves=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_flatten_unflatten_identity(self, tree):
        leaves, td = tree_flatten(tree)
        assert tree_unflatten(td, leaves) == tree


class TestMLPInvariants:
    @given(arrays(np.float64, (4, 2), elements=SAFE), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_forward(self, x, seed):
        m = MLP(2, (6,), 1)
        p = m.init_params(seed)
        y1 = m.apply(p, x).data
        y2 = m.apply(p, x).data
        np.testing.assert_array_equal(y1, y2)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_param_count_matches_shapes(self, seed):
        m = MLP(2, (7, 5), 3)
        p = m.init_params(seed)
        total = sum(layer["W"].size + layer["b"].size for layer in p)
        assert total == m.n_params()


class TestOptimizerInvariants:
    @given(arrays(np.float64, 5, elements=SAFE))
    @settings(max_examples=40, deadline=None)
    def test_adam_step_bounded_by_lr(self, g):
        """|Δp| ≤ lr / (1 − tiny) for the first Adam step, any gradient."""
        opt = Adam(lr=0.01)
        p = np.zeros(5)
        st_ = opt.init(p)
        p2, _ = opt.step(p, g, st_)
        assert np.all(np.abs(p2) <= 0.0100001 + 1e-12)

    @given(
        arrays(np.float64, 4, elements=SAFE),
        st.floats(0.01, 10.0, width=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_clip_never_exceeds_max(self, g, max_norm):
        clipped = clip_grad_norm({"g": g}, max_norm)
        assert global_grad_norm(clipped) <= max_norm + 1e-9


def _per_leaf_adam_step(opt, params, grads, state, lr):
    """Adam applied leaf by leaf: the reference for the flat update."""
    t, m, v = state
    t += 1
    m = tree_zip_map(
        lambda mi, g: opt.beta1 * mi + (1 - opt.beta1) * np.asarray(g), m, grads
    )
    v = tree_zip_map(
        lambda vi, g: opt.beta2 * vi + (1 - opt.beta2) * np.asarray(g) ** 2, v, grads
    )
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t

    def update(p, mi, vi):
        mhat = mi / bc1
        vhat = vi / bc2
        return np.asarray(p, dtype=np.float64) - lr * mhat / (np.sqrt(vhat) + opt.eps)

    return tree_zip_map(update, params, m, v), (t, m, v)


LAYOUTS = ("bare", "dict", "list", "nested", "stacked")


@st.composite
def adam_problems(draw):
    """``(params, grads_per_step, lr)`` over one random pytree layout.

    ``nested`` mimics the PINN's ``{"u": [...], "c": {...}}`` pair and
    zeroes one subtree's gradient on alternate steps (the alternating
    scheme); ``stacked`` gives every leaf a shared leading axis (the
    batched line search).
    """
    layout = draw(st.sampled_from(LAYOUTS))
    shapes = draw(st.lists(array_shapes(min_dims=0, max_dims=3, max_side=4),
                           min_size=1, max_size=5))
    n_steps = draw(st.integers(1, 5))
    lr = draw(st.sampled_from([1e-3, 2e-3, 0.05, 0.1]))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_stack = draw(st.integers(1, 3))

    def build(make):
        leaves = [make(s) for s in shapes]
        if layout == "bare":
            return leaves[0]
        if layout == "dict":
            return {f"k{i}": x for i, x in enumerate(leaves)}
        if layout == "list":
            return leaves
        if layout == "nested":
            half = (len(leaves) + 1) // 2
            return {"u": [{"W": x} for x in leaves[:half]],
                    "c": {f"b{i}": x for i, x in enumerate(leaves[half:])}}
        return {"u": [np.stack([x * (i + 1) for i in range(n_stack)]) for x in leaves]}

    params = build(lambda s: rng.standard_normal(s))
    grads = []
    for k in range(n_steps):
        g = build(lambda s: scale * rng.standard_normal(s))
        if layout == "nested" and k % 2 == 1:
            g["c"] = tree_map(np.zeros_like, g["c"])
        grads.append(g)
    return params, grads, lr


class TestFlatAdam:
    @given(adam_problems())
    @settings(max_examples=80, deadline=None)
    def test_flat_step_is_bitwise_per_leaf(self, problem):
        """Over several steps, the flat update equals the per-leaf one
        bit for bit — parameters and both moments."""
        params, grad_steps, lr = problem
        opt = Adam(lr=lr)
        flat_p, flat_state = params, opt.init(params)
        ref_zeros = tree_map(lambda p: np.zeros_like(np.asarray(p, dtype=np.float64)), params)
        ref_p, ref_state = params, (0, ref_zeros, ref_zeros)
        for g in grad_steps:
            flat_p, flat_state = opt.step(flat_p, g, flat_state, lr=lr)
            ref_p, ref_state = _per_leaf_adam_step(opt, ref_p, g, ref_state, lr)
            got, td = tree_flatten(flat_p)
            want, ref_td = tree_flatten(ref_p)
            assert td == ref_td
            for a, b in zip(got, want):
                assert np.shape(a) == np.shape(b)
                assert np.array_equal(a, b)
            assert flat_state[0] == ref_state[0]
            for flat_moment, ref_moment in zip(flat_state[1:], ref_state[1:]):
                assert np.array_equal(ravel_leaves(flat_moment), ravel_leaves(ref_moment))

    def test_bare_array_keeps_its_shape(self):
        opt = Adam(lr=0.1)
        x = np.ones((2, 3))
        st_ = opt.init(x)
        assert st_[1].shape == (2, 3)
        x2, st_ = opt.step(x, np.ones((2, 3)), st_)
        assert x2.shape == (2, 3) and st_[1].shape == (2, 3)

    def test_gradient_size_mismatch_raises(self):
        opt = Adam(lr=0.1)
        params = {"a": np.ones(2), "b": np.ones(3)}
        with pytest.raises(ValueError, match="entries"):
            opt.step(params, {"a": np.ones(2)}, opt.init(params))


class TestScheduleInvariants:
    @given(st.floats(1e-6, 1.0, width=64), st.integers(4, 1000))
    @settings(max_examples=40, deadline=None)
    def test_paper_schedule_endpoints(self, lr, total):
        s = paper_schedule(lr)
        assert s(0, total) == lr
        assert abs(s(total - 1, total) - lr * 0.01) < 1e-15 * max(1.0, lr)
