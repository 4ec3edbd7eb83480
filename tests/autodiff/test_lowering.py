"""IR-lowering pass tests: fusion legality, DBE safety, CSE detection.

The lowering pass (:mod:`repro.autodiff.lowering`) decides which traced
ops become fused straight-line source, which buffers die, and which
taped values the backward sweep may reuse.  These tests pin the *legal*
boundaries of each pass — the cases where an optimisation must NOT fire:
shape changes split fusion chains, views are barriers, dead-buffer
elimination never touches a leaf gradient or a value the backward sweep
reads, and the ``1 - tanh^2`` CSE only matches the exact taped pattern.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import linalg, ops
from repro.autodiff.compile import compiled_value_and_grad
from repro.autodiff.functional import value_and_grad
from repro.autodiff.lowering import (
    LoweredProgram,
    LoweringError,
    lower,
    matmul_symbolic,
    unbroadcast_plan,
)
from repro.autodiff.tensor import Tensor, tensor


def lowered(f, *args) -> LoweredProgram:
    """Trace ``f`` eagerly, differentiating every argument, and lower it."""
    leaves = [Tensor(np.array(a), requires_grad=True) for a in args]
    return lower(tensor(f(*leaves)), leaves)


def by_op(lw: LoweredProgram, op: str):
    return [ir for ir in lw.nodes if ir.op == op]


# ----------------------------------------------------------------------
# Fusion legality
# ----------------------------------------------------------------------
class TestFusionLegality:
    def test_same_shape_chain_fuses_into_one_group(self):
        def f(x):
            return ops.sum_(ops.sin(ops.exp(ops.square(x))))

        lw = lowered(f, np.linspace(0.1, 1.0, 12))
        gids = {by_op(lw, op)[0].group for op in ("square", "exp", "sin")}
        assert len(gids) == 1, "an unbroken same-shape chain must fuse"
        assert lw.stats.n_fused_groups == 1
        assert lw.stats.n_fused == 3

    def test_broadcast_mismatch_splits_chain(self):
        y = np.linspace(-1.0, 1.0, 12).reshape(4, 3)

        def f(x):
            return ops.sum_(ops.sin(ops.exp(x) + y))  # (3,) -> (4, 3)

        lw = lowered(f, np.linspace(0.1, 1.0, 3))
        g_exp = by_op(lw, "exp")[0].group
        g_add = by_op(lw, "add")[0].group
        g_sin = by_op(lw, "sin")[0].group
        assert g_exp != g_add, "shape change (3,)->(4,3) must close the group"
        assert g_add == g_sin, "the (4,3) ops downstream re-fuse"
        shapes = {gid: lw.groups[gid].shape for gid in (g_exp, g_add)}
        assert shapes[g_exp] == (3,) and shapes[g_add] == (4, 3)

    def test_views_are_fusion_barriers(self):
        def f(x):
            return ops.sum_(ops.sin(ops.reshape(ops.exp(x), (2, 3))))

        lw = lowered(f, np.linspace(0.1, 1.0, 6))
        view = by_op(lw, "reshape")[0]
        assert view.kind == "view"
        assert view.group == -1, "views emit no kernel and join no group"
        assert by_op(lw, "exp")[0].group != by_op(lw, "sin")[0].group

    def test_opaque_op_splits_chain(self):
        A = np.eye(5) * 4.0 + np.ones((5, 5))

        def f(b):
            return ops.sum_(ops.square(linalg.solve(A, ops.exp(b))))

        lw = lowered(f, np.linspace(0.1, 1.0, 5))
        solve = by_op(lw, "solve")[0]
        assert solve.kind == "opaque"
        assert by_op(lw, "exp")[0].group != by_op(lw, "square")[0].group

    def test_matmul_symbolic_combos(self):
        assert matmul_symbolic(2, 2) and matmul_symbolic(2, 1)
        assert matmul_symbolic(1, 2)
        assert matmul_symbolic(3, 2) and matmul_symbolic(2, 3)
        assert matmul_symbolic(3, 3) and matmul_symbolic(4, 2)
        assert not matmul_symbolic(1, 1)  # dot: scalar output, stays opaque
        assert not matmul_symbolic(3, 1) and not matmul_symbolic(1, 3)


# ----------------------------------------------------------------------
# Dead-buffer elimination safety
# ----------------------------------------------------------------------
class TestDeadBufferElimination:
    def _programs(self):
        A = np.eye(6) * 5.0 + np.ones((6, 6))
        W = np.linspace(-0.5, 0.5, 24).reshape(4, 6)
        yield lambda x: ops.sum_(ops.square(ops.tanh(x))), (
            np.linspace(-1, 1, 8),
        )
        yield lambda b: ops.sum_(ops.square(linalg.solve(A, b))), (
            np.linspace(0.1, 1.0, 6),
        )
        yield (
            lambda x, y: ops.sum_(ops.matmul(W, x) * 2.0) + ops.sum_(x * y),
            (np.linspace(0.1, 1.0, 6), np.linspace(1.0, 2.0, 6)),
        )

    def test_leaf_gradients_never_transient(self):
        for f, args in self._programs():
            lw = lowered(f, *args)
            for ir in lw.nodes:
                if ir.kind == "leaf":
                    assert not ir.cot_transient, (
                        f"DBE marked leaf {ir.idx} cotangent transient — "
                        "its gradient is the program's output"
                    )
                    assert not ir.value_transient

    def test_root_cotangent_never_transient(self):
        for f, args in self._programs():
            lw = lowered(f, *args)
            assert not lw.nodes[0].cot_transient, (
                "the root cotangent seeds the backward sweep"
            )

    def test_values_read_by_backward_are_pinned(self):
        # mul VJP reads the sibling operand; exp/tanh VJPs read their own
        # output.  None of those values may be dropped.
        def f(x, y):
            return ops.sum_(ops.exp(x) * ops.tanh(y))

        lw = lowered(f, np.linspace(0.1, 0.9, 7), np.linspace(-1, 1, 7))
        for op in ("exp", "tanh"):
            assert not by_op(lw, op)[0].value_transient, (
                f"{op} output is read by a VJP and must stay live"
            )

    def test_unneeded_intermediate_is_dropped(self):
        # add's VJP reads neither operand: the exp value is only consumed
        # in the forward and dies once its (symbolic) reader has run.
        def f(x):
            return ops.sum_(ops.exp(x) + ops.sin(x))

        lw = lowered(f, np.linspace(0.1, 1.0, 9))
        assert by_op(lw, "add")[0].value_transient
        assert lw.stats.values_dropped >= 1
        assert lw.stats.dropped_bytes > 0

    def test_dbe_preserves_gradients_end_to_end(self):
        for f, args in self._programs():
            ev, eg = value_and_grad(f, argnums=tuple(range(len(args))))(*args)
            vg = compiled_value_and_grad(f, argnums=tuple(range(len(args))))
            vg(*args)  # trace
            cv, cg = vg(*args)  # compiled call
            assert cv == ev
            if not isinstance(cg, tuple):
                cg, eg = (cg,), (eg,)
            for a, b in zip(cg, eg):
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


# ----------------------------------------------------------------------
# tanh CSE: reuse of a taped ``1 - tanh^2``
# ----------------------------------------------------------------------
class TestTanhCSE:
    def test_pattern_is_detected_and_pinned(self):
        def f(x):
            t = ops.tanh(x)
            df = 1.0 - ops.square(t)  # the PINN derivative-propagation term
            return ops.sum_(df * x) + ops.sum_(t)

        lw = lowered(f, np.linspace(-1.0, 1.0, 10))
        assert lw.stats.cse_hits == 1
        ((t_idx, sub_idx),) = lw.cse_tanh.items()
        assert lw.nodes[t_idx].op == "tanh"
        assert lw.nodes[sub_idx].op == "sub"
        assert not lw.nodes[sub_idx].value_transient, (
            "the reused value must be pinned across the fwd/bwd boundary"
        )

    def test_no_false_positive_without_pattern(self):
        lw = lowered(
            lambda x: ops.sum_(ops.square(ops.tanh(x))),
            np.linspace(-1.0, 1.0, 10),
        )
        assert lw.stats.cse_hits == 0 and lw.cse_tanh == {}

    def test_wrong_constant_does_not_match(self):
        def f(x):
            t = ops.tanh(x)
            return ops.sum_((2.0 - ops.square(t)) * x) + ops.sum_(t)

        lw = lowered(f, np.linspace(-1.0, 1.0, 10))
        assert lw.cse_tanh == {}

    def test_cse_gradients_bitexact(self):
        def f(x):
            t = ops.tanh(x)
            return ops.sum_((1.0 - ops.square(t)) * ops.sin(x)) + ops.sum_(t)

        x = np.linspace(-2.0, 2.0, 50)
        ev, eg = value_and_grad(f)(x)
        vg = compiled_value_and_grad(f)
        vg(x)
        cv, cg = vg(x)
        assert cv == ev
        np.testing.assert_array_equal(cg, eg)
        assert vg.cache_info()["codegen_fallbacks"] == 0


# ----------------------------------------------------------------------
# Stats / plan consistency
# ----------------------------------------------------------------------
class TestLoweredStats:
    def test_op_counts_are_consistent(self):
        def f(x):
            return ops.sum_(ops.sin(ops.exp(x)) * x)

        lw = lowered(f, np.linspace(0.1, 1.0, 8))
        st = lw.stats
        assert st.n_ops == st.n_symbolic + st.n_opaque
        assert st.n_fused <= st.n_symbolic
        assert 0.0 <= st.fused_fraction <= 1.0
        assert len(lw.fwd_schedule) == st.n_ops

    def test_unbroadcast_plan_matches_shapes(self):
        assert unbroadcast_plan((4, 3), (4, 3)) is None
        assert unbroadcast_plan((4, 3), (3,)) == ((0,), ())
        assert unbroadcast_plan((4, 3), (1, 3)) == ((), (0,))
        assert unbroadcast_plan((2, 4, 3), (4, 1)) == ((0,), (1,))


def test_lowering_rejects_unreplayable():
    # A node without a forward-replay closure cannot be re-executed.
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(2.0 * x.data, parents=[(x, lambda g: 2.0 * g)], op="mystery")
    with pytest.raises(LoweringError, match="mystery"):
        lower(ops.sum_(y), [x])
