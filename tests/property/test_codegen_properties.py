"""Property-based tests of the codegen lowering passes (hypothesis).

Three invariants over randomised inputs:

- **Arena liveness** — the slot allocator never hands two live intervals
  the same slot, for any start-sorted request stream over any mix of
  shapes and dtypes (and its own ``verify()`` agrees).
- **Unbroadcast plans** — the static reduction plan the emitter bakes
  into generated source produces bitwise the same array as the eager
  tape's dynamic ``unbroadcast`` helper, for every broadcastable shape
  pair.
- **Program parity** — randomly composed elementwise/broadcast programs
  execute bitwise-identically under the codegen tier and the eager tape.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import ops
from repro.autodiff.compile import compiled_value_and_grad
from repro.autodiff.functional import value_and_grad
from repro.autodiff.lowering import ArenaPlanner, unbroadcast_plan
from repro.autodiff.tensor import unbroadcast

# ----------------------------------------------------------------------
# Arena liveness
# ----------------------------------------------------------------------
SHAPES = [(4,), (2, 3), (8,), (1, 5), ()]
DTYPES = ["float64", "float32"]

#: (shape_idx, dtype_idx, start_gap >= 0, duration >= 0)
request = st.tuples(
    st.integers(0, len(SHAPES) - 1),
    st.integers(0, len(DTYPES) - 1),
    st.integers(0, 3),
    st.integers(0, 6),
)


@given(st.lists(request, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_arena_never_shares_a_slot_between_live_intervals(reqs):
    planner = ArenaPlanner()
    start = 0
    for shape_i, dtype_i, gap, dur in reqs:
        start += gap
        planner.alloc(SHAPES[shape_i], DTYPES[dtype_i], start, start + dur)

    planner.verify()  # the planner's own invariant check must agree …

    # … and so must a from-scratch overlap scan over the recorded plan.
    live = {}
    for slot, s, e in sorted(planner.intervals, key=lambda t: t[1]):
        if slot in live:
            assert live[slot] < s, (
                f"slot {slot} reassigned at {s} while live until {live[slot]}"
            )
        live[slot] = e
    # Slots are only ever created when no compatible slot is free.
    assert len(planner.slots) <= len(planner.intervals)


def test_arena_requests_must_be_start_sorted():
    import pytest

    from repro.autodiff.lowering import LoweringError

    planner = ArenaPlanner()
    planner.alloc((4,), "float64", 10, 12)
    with pytest.raises(LoweringError):
        planner.alloc((4,), "float64", 9, 11)


# ----------------------------------------------------------------------
# Unbroadcast plans vs the eager helper
# ----------------------------------------------------------------------
@st.composite
def broadcast_pair(draw):
    """(out_shape, target_shape) with target broadcastable to out."""
    out = tuple(draw(st.lists(st.integers(1, 4), min_size=0, max_size=4)))
    n_keep = draw(st.integers(0, len(out)))
    target = tuple(
        1 if draw(st.booleans()) else s for s in out[len(out) - n_keep:]
    )
    return out, target


@given(broadcast_pair(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_unbroadcast_plan_matches_eager_helper(pair, seed):
    out_shape, target_shape = pair
    g = np.random.default_rng(seed).standard_normal(out_shape)
    ref = unbroadcast(g, target_shape)

    plan = unbroadcast_plan(out_shape, target_shape)
    if plan is None:
        assert out_shape == target_shape
        red = g
    else:
        lead, keep = plan
        red = g
        if lead:
            red = red.sum(axis=lead)
        if keep:
            red = red.sum(axis=keep, keepdims=True)
        red = red.reshape(target_shape)
    assert red.shape == ref.shape
    np.testing.assert_array_equal(red, ref)


# ----------------------------------------------------------------------
# Random program parity: codegen tier == eager tape, bitwise
# ----------------------------------------------------------------------
UNARY = [ops.exp, ops.sin, ops.tanh, ops.square, ops.neg, ops.sigmoid]
BINARY = [ops.add, ops.sub, ops.mul]


@st.composite
def program(draw):
    """A random chain of unary/binary elementwise ops with broadcasts."""
    steps = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 2)),
            min_size=1,
            max_size=6,
        )
    )
    return steps


@given(program(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_elementwise_program_parity(steps, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, (4, 3))
    y0 = rng.uniform(-1.0, 1.0, (3,))  # broadcast partner

    def f(x, y):
        t = x
        for is_binary, op_i, operand in steps:
            if is_binary:
                other = (y, x0, 0.5)[operand]
                t = BINARY[op_i % len(BINARY)](t, other)
            else:
                t = UNARY[op_i](t)
        return ops.sum_(ops.square(t)) + ops.sum_(y * 2.0)

    ev, eg = value_and_grad(f, argnums=(0, 1))(x0, y0)
    vg = compiled_value_and_grad(f, argnums=(0, 1))
    vg(x0, y0)  # trace
    cv, cg = vg(x0, y0)  # generated-source replay
    # assert_array_equal is exact but counts NaN == NaN: a chain such as
    # four exps followed by a sin overflows to NaN on both tiers: parity.
    np.testing.assert_array_equal(np.asarray(cv), np.asarray(ev))
    for a, b in zip(cg, eg):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
