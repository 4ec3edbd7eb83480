"""Batching-rule conformance suite (DESIGN §13).

For every registered primitive (via the ``BATCHING_CASES`` table in
``tests/conftest.py``) this suite pins the four-part contract:

(a) ``vbatch(f)(xs)`` equals ``stack([f(x) for x in xs])`` — bitwise by
    default, with per-case absolute tolerances only where a BLAS/LAPACK
    multi-RHS call is documented not to be bit-reproducible (dense
    ``getrs``/``gelsd`` blocks);
(b) cotangents of the batched program match the looped per-item VJPs
    slice for slice (same default-bitwise policy; const-operand
    cotangents allow for the differing accumulation order);
(c) the compiled replay engine agrees with the eager tape on batched
    programs — trace call and replay call both;
(d) registry completeness — every public op in ``ops``/``linalg``/
    ``sparse`` is a registered primitive or a marked composite, every
    registered primitive has a rule or a declared fallback, and the
    conformance table itself covers the whole registry, so a new
    primitive cannot land untested.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.autodiff import batching, linalg, ops, sparse
from repro.autodiff.batching import (
    BatchTracer,
    declared_fallbacks,
    has_batch_rule,
    registered_primitives,
    vbatch,
)
from repro.autodiff.compile import compiled_value_and_grad
from repro.autodiff.functional import value_and_grad
from repro.autodiff.tensor import Tensor, asdata, tensor


def _rng(case, salt: str = ""):
    return np.random.default_rng(zlib.crc32((case.label + salt).encode()))


def _item_args(args, in_axes, i):
    return [a[i] if ax == 0 else a for a, ax in zip(args, in_axes)]


def _assert_close(a, b, tol, msg):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape, f"{msg}: shape {a.shape} != {b.shape}"
    if tol == 0.0:
        assert np.array_equal(a, b), (
            f"{msg}: not bitwise, max |diff| = {np.max(np.abs(a - b))}"
        )
    else:
        np.testing.assert_allclose(a, b, rtol=0.0, atol=tol, err_msg=msg)


# ----------------------------------------------------------------------
# (a) forward: vbatch == stacked loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 3])
def test_forward_matches_stacked_loop(batch_case, n):
    args = batch_case.make_args(_rng(batch_case), n)
    out = vbatch(batch_case.fn, in_axes=batch_case.in_axes)(*args)
    ref = np.stack(
        [
            asdata(batch_case.fn(*_item_args(args, batch_case.in_axes, i)))
            for i in range(n)
        ]
    )
    _assert_close(out.data, ref, batch_case.fwd_tol, batch_case.label)


def test_zero_batch_yields_empty_output(batch_case):
    # N = 0 must produce a (0, *item_shape) result without error — the
    # degenerate edge every rule (and the fallback probe) must survive.
    out0 = vbatch(batch_case.fn, in_axes=batch_case.in_axes)(
        *batch_case.make_args(_rng(batch_case), 0)
    )
    out1 = vbatch(batch_case.fn, in_axes=batch_case.in_axes)(
        *batch_case.make_args(_rng(batch_case), 1)
    )
    assert out0.shape == (0,) + out1.shape[1:]


# ----------------------------------------------------------------------
# (b) reverse: batched VJPs == looped VJPs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 3])
def test_vjp_matches_looped(batch_case, n):
    case = batch_case
    args = case.make_args(_rng(case), n)

    # Batched pass: one stacked program, one backward.
    targs, leaves = [], {}
    for idx, (a, d) in enumerate(zip(args, case.diff)):
        if d:
            t = tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
            targs.append(t)
            leaves[idx] = t
        else:
            targs.append(a)
    out = vbatch(case.fn, in_axes=case.in_axes)(*targs)
    cot = _rng(case, "cot").standard_normal(out.shape)
    out.backward(cot)

    # Looped reference: fresh leaves per item for batched operands, ONE
    # shared leaf for const operands (its grad accumulates across items
    # exactly as N uses of the same tensor would).
    const_t = {
        idx: tensor(np.asarray(args[idx], dtype=np.float64), requires_grad=True)
        for idx, (ax, d) in enumerate(zip(case.in_axes, case.diff))
        if d and ax is None
    }
    item_grads = {
        idx: []
        for idx, (ax, d) in enumerate(zip(case.in_axes, case.diff))
        if d and ax == 0
    }
    for i in range(n):
        call, item_t = [], {}
        for idx, (a, ax, d) in enumerate(zip(args, case.in_axes, case.diff)):
            if ax == 0:
                if d:
                    t = tensor(np.asarray(a[i], dtype=np.float64), requires_grad=True)
                    item_t[idx] = t
                    call.append(t)
                else:
                    call.append(a[i])
            else:
                call.append(const_t.get(idx, a))
        o = case.fn(*call)
        o.backward(cot[i])
        for idx, t in item_t.items():
            item_grads[idx].append(t.grad)

    for idx, grads in item_grads.items():
        batched_grad = leaves[idx].grad
        assert batched_grad is not None, f"{case.label}: no grad for arg {idx}"
        for i in range(n):
            _assert_close(
                batched_grad[i], grads[i], case.grad_tol,
                f"{case.label}: arg {idx} item {i} cotangent",
            )
    for idx, ct in const_t.items():
        _assert_close(
            leaves[idx].grad, ct.grad, case.const_grad_tol,
            f"{case.label}: const arg {idx} cotangent",
        )


# ----------------------------------------------------------------------
# (c) compiled replay == eager on batched programs
# ----------------------------------------------------------------------
def test_compiled_matches_eager(batch_case):
    case = batch_case
    if not case.compileable:
        pytest.skip("argument not hashable/wrappable by the compile cache")
    args = case.make_args(_rng(case), 3)
    diff_idx = tuple(i for i, d in enumerate(case.diff) if d)

    def loss(*call_args):
        return ops.sum_(vbatch(case.fn, in_axes=case.in_axes)(*call_args))

    ev, eg = value_and_grad(loss, argnums=diff_idx)(*args)
    cvg = compiled_value_and_grad(loss, argnums=diff_idx)
    v1, g1 = cvg(*args)  # trace call
    v2, g2 = cvg(*args)  # replay call
    def grads_tuple(g):
        return g if isinstance(g, (tuple, list)) else (g,)

    for v, g in ((v1, g1), (v2, g2)):
        assert float(v) == float(ev), case.label
        for a, b in zip(grads_tuple(g), grads_tuple(eg)):
            _assert_close(
                asdata(a), asdata(b), 0.0, f"{case.label}: compiled grad"
            )


# ----------------------------------------------------------------------
# (d) registry completeness
# ----------------------------------------------------------------------
#: Public callables in the op modules that are deliberately NOT
#: primitives: tape plumbing, factories, and re-exported helpers.
_NON_PRIMITIVES = {
    "make_node", "tensor", "asdata", "is_tensor", "unbroadcast",
    "primitive", "composite", "make_linear_solver", "get_registry",
    "span",
}


def _public_callables(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue  # re-exports (np functions, decorators from batching)
        yield name, obj


def test_every_public_op_is_primitive_or_composite():
    offenders = []
    for mod in (ops, linalg, sparse):
        for name, obj in _public_callables(mod):
            if name in _NON_PRIMITIVES:
                continue
            if getattr(obj, "_primitive_name", None):
                continue
            if getattr(obj, "_composite", False):
                continue
            offenders.append(f"{mod.__name__}.{name}")
    assert offenders == [], (
        "public ops without @primitive/@composite (add a batching rule or "
        f"a declared fallback): {offenders}"
    )


def test_solver_call_methods_are_primitives():
    assert getattr(linalg.LUSolver.__call__, "_primitive_name", None) == "lu_solve"
    assert (
        getattr(sparse.SparseLUSolver.__call__, "_primitive_name", None)
        == "sparse_lu_solve"
    )


def test_every_registered_primitive_has_rule_or_fallback():
    uncovered = [
        name
        for name in registered_primitives()
        if not has_batch_rule(name) and name not in declared_fallbacks()
    ]
    assert uncovered == [], (
        "registered primitives without a batching rule or declared "
        f"fallback opt-out: {uncovered}"
    )


def test_conformance_table_covers_registry(batching_rule_table):
    covered = {c.name for c in batching_rule_table}
    missing = set(registered_primitives()) - covered
    assert missing == set(), (
        f"registered primitives with no conformance case: {missing}"
    )


def test_table_names_are_registered(batching_rule_table):
    unknown = {c.name for c in batching_rule_table} - set(registered_primitives())
    assert unknown == set(), f"conformance cases for unknown primitives: {unknown}"


# ----------------------------------------------------------------------
# Declared-fallback graceful degradation
# ----------------------------------------------------------------------
def test_declared_fallback_primitive_degrades_to_loop():
    # A primitive registered with fallback=True gets the differentiable
    # getitem → op → stack loop under vbatch — no rule required, results
    # and gradients match the serial loop bitwise.
    name = "_conformance_fallback_probe"

    @batching.primitive(name, fallback=True)
    def odd_einsum(a, b):
        return ops.sum_(ops.mul(a, b), axis=0)

    try:
        assert name in declared_fallbacks()
        assert not has_batch_rule(name)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((4, 5))
        w = rng.standard_normal(5)

        xt = tensor(xs, requires_grad=True)
        out = vbatch(lambda a: odd_einsum(a, w))(xt)
        ref = np.stack([asdata(odd_einsum(x, w)) for x in xs])
        assert np.array_equal(out.data, ref)

        cot = rng.standard_normal(out.shape)
        out.backward(cot)
        for i in range(4):
            it = tensor(xs[i], requires_grad=True)
            odd_einsum(it, w).backward(cot[i])
            assert np.array_equal(xt.grad[i], it.grad)
    finally:
        batching._PRIMITIVES.pop(name, None)
        batching._WRAPPERS.pop(name, None)
        batching._FALLBACK_DECLARED.discard(name)


def test_undeclared_primitive_without_rule_takes_loop():
    # Even with no rule AND no declaration the dispatcher must not error —
    # the completeness check is what flags the omission, not a crash.
    name = "_conformance_unruled_probe"

    @batching.primitive(name)
    def cube_mean(a):
        return ops.mean(ops.mul(ops.square(a), a))

    try:
        xs = np.random.default_rng(11).standard_normal((3, 4))
        out = vbatch(cube_mean)(xs)
        ref = np.stack([asdata(cube_mean(x)) for x in xs])
        assert np.array_equal(out.data, ref)
    finally:
        batching._PRIMITIVES.pop(name, None)
        batching._WRAPPERS.pop(name, None)


# ----------------------------------------------------------------------
# vbatch transform semantics
# ----------------------------------------------------------------------
class TestVbatchAPI:
    def test_in_axes_nonzero(self):
        xs = np.arange(12.0).reshape(4, 3)  # batch along axis 1
        out = vbatch(lambda x: ops.mul(x, 2.0), in_axes=1)(xs)
        assert out.shape == (3, 4)
        assert np.array_equal(out.data, (xs * 2.0).T)

    def test_out_axes_nonzero(self):
        xs = np.arange(6.0).reshape(3, 2)
        out = vbatch(lambda x: ops.mul(x, 2.0), out_axes=1)(xs)
        assert out.shape == (2, 3)
        assert np.array_equal(out.data, (xs * 2.0).T)

    def test_none_in_axes_closes_over(self):
        xs = np.arange(6.0).reshape(3, 2)
        w = np.array([2.0, 3.0])
        out = vbatch(ops.mul, in_axes=(0, None))(xs, w)
        assert np.array_equal(out.data, xs * w)

    def test_pytree_arguments(self):
        xs = {"a": np.arange(6.0).reshape(3, 2), "b": np.ones((3, 2))}
        out = vbatch(lambda p: ops.add(p["a"], p["b"]), in_axes=0)(xs)
        assert np.array_equal(out.data, xs["a"] + 1.0)

    def test_kwargs_pass_through_unbatched(self):
        xs = np.arange(12.0).reshape(3, 4)
        out = vbatch(lambda x, axis=None: ops.sum_(x, axis=axis))(xs, axis=0)
        assert np.array_equal(out.data, xs.sum(axis=1))

    def test_constant_output_is_tiled_with_summed_cotangent(self):
        w = tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = vbatch(lambda x: ops.mul(w, 3.0), in_axes=0)(np.zeros((4, 2)))
        assert out.shape == (4, 2)
        out.backward(np.ones((4, 2)))
        assert np.array_equal(w.grad, np.full(2, 12.0))

    def test_mask_output_unwraps_to_bool_array(self):
        xs = np.array([[-1.0, 2.0], [3.0, -4.0]])
        out = vbatch(lambda x: x > 0.0)(xs)
        assert isinstance(out, np.ndarray) and out.dtype == bool
        assert np.array_equal(out, xs > 0.0)

    def test_inconsistent_batch_sizes_error(self):
        with pytest.raises(ValueError, match="inconsistent batch sizes"):
            vbatch(ops.add)(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_no_batched_argument_error(self):
        with pytest.raises(ValueError, match="selected no argument"):
            vbatch(ops.neg, in_axes=None)(np.zeros(3))

    def test_nested_vbatch_rejected(self):
        def inner(x):
            return vbatch(ops.neg)(np.zeros((2, 2)))

        with pytest.raises(RuntimeError, match="nested vbatch"):
            vbatch(inner)(np.zeros((3, 2)))

    def test_tracer_cannot_leak_to_numpy(self):
        def bad(x):
            return np.asarray(x)

        with pytest.raises(TypeError, match="cannot be coerced"):
            vbatch(bad)(np.zeros((2, 2)))

    def test_state_resets_after_user_error(self):
        def boom(x):
            raise RuntimeError("user code failure")

        with pytest.raises(RuntimeError, match="user code failure"):
            vbatch(boom)(np.zeros((2, 2)))
        assert not batching.is_batching()
        assert batching.batch_size() == 0

    def test_gradients_flow_through_batched_program(self):
        xs = np.random.default_rng(3).standard_normal((5, 4))
        xt = tensor(xs, requires_grad=True)
        out = vbatch(lambda x: ops.sum_(ops.square(x)))(xt)
        out.backward(np.ones(5))
        assert np.array_equal(xt.grad, 2.0 * xs)


# ----------------------------------------------------------------------
# The rule set: broadcasting and multi-RHS solve rules only
# ----------------------------------------------------------------------
_SOLVE_RULES = {
    "solve", "row_scaled_solve", "lstsq", "lu_solve", "sparse_solve",
    "sparse_lu_solve", "sparse_matvec", "sparse_pattern_solve",
    "krylov_solve", "krylov_pattern_solve",
}
_LOOPED = {"matmul", "reshape", "transpose", "getitem", "concatenate", "stack"}


def test_rule_set_is_broadcasting_reductions_and_solves():
    from repro.autodiff.elementwise import ELEMENTWISE

    ruled = {n for n in registered_primitives() if has_batch_rule(n)}
    assert ruled == set(ELEMENTWISE) | {"sum", "mean", "amax"} | _SOLVE_RULES
    assert _LOOPED <= declared_fallbacks()


# ----------------------------------------------------------------------
# Comparisons and masks align item ranks like the elementwise rules
# ----------------------------------------------------------------------
class TestMaskItemRankAlignment:
    """Items ``x`` of shape (3,) meet operands of item shape (2, 3)."""

    @staticmethod
    def _data(n):
        rng = np.random.default_rng(11 + n)
        return (
            rng.standard_normal((n, 3)),
            rng.standard_normal((n, 2, 3)),
            rng.standard_normal((2, 3)),
        )

    @staticmethod
    def _check(out, ref):
        assert isinstance(out, np.ndarray) and out.dtype == bool
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tracer_vs_tracer(self, n):
        xs, ys, _ = self._data(n)
        out = vbatch(lambda x, y: x < y)(xs, ys)
        self._check(out, np.stack([xs[i] < ys[i] for i in range(n)]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_tracer_vs_constant(self, n):
        xs, _, c = self._data(n)
        out = vbatch(lambda x: x < c)(xs)
        self._check(out, np.stack([xs[i] < c for i in range(n)]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_mask_and_mask(self, n):
        xs, ys, _ = self._data(n)
        out = vbatch(lambda x, y: (x > 0.0) & (y > 0.0))(xs, ys)
        self._check(out, np.stack([(xs[i] > 0.0) & (ys[i] > 0.0) for i in range(n)]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_mask_and_constant(self, n):
        xs, _, c = self._data(n)
        m = c > 0.0
        out = vbatch(lambda x: (x > 0.0) | m)(xs)
        self._check(out, np.stack([(xs[i] > 0.0) | m for i in range(n)]))
