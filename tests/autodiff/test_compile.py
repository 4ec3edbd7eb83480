"""Tests for trace-once compilation (:mod:`repro.autodiff.compile`).

The contract under test: for any supported graph, a compiled program must
reproduce the eager tape's value AND gradients to bit-identical (or at
worst 1e-12 relative) precision across arbitrarily many input changes —
must fall back to a fresh trace whenever the input signature changes, and
must own its buffers: never write the caller's arrays, never outlive its
wrapper.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.compile import (
    CompileError,
    compiled_value_and_grad,
    compiled_value_and_grad_tree,
)
from repro.autodiff.functional import value_and_grad
from repro.autodiff.linalg import LUSolver
from repro.autodiff.sparse import sparse_pattern_solve
from repro.autodiff.tensor import Tensor
from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP
from repro.nn.mlp import MLP
from repro.nn.pytree import tree_flatten, value_and_grad_tree
from repro.pde.laplace import LaplaceControlProblem


# ----------------------------------------------------------------------
# Property: replay == eager, values and gradients
# ----------------------------------------------------------------------
_MASK = np.arange(12) % 2 == 0  # fixed selection: replay-safe


def _composite(c):
    """A graph touching reductions, branches, indexing and nonlinearities.

    Note the ``where`` condition is *positional*, not value-dependent: a
    condition computed from input values would be baked at trace time
    (the same restriction ``jax.jit`` places on traced control flow).
    ``maximum``/``clip`` masks are fine — their forward closures refresh
    them on every replay.
    """
    a = ops.mul(c, 2.0)
    b = ops.maximum(a, 0.1)
    d = ops.clip(ops.sin(b), -0.9, 0.9)
    e = ops.where(_MASK, d, ops.square(c))
    head = e[2:7]
    return ops.sum_(ops.square(head)) + ops.mean(ops.exp(ops.mul(e, -0.5)))


def test_composite_graph_matches_eager():
    eager = value_and_grad(_composite)
    comp = compiled_value_and_grad(_composite)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=12)
        ve, ge = eager(x)
        vc, gc = comp(x)
        np.testing.assert_allclose(vc, ve, rtol=1e-12)
        np.testing.assert_allclose(gc, ge, rtol=1e-12)
    info = comp.cache_info()
    assert info["traces"] == 1 and info["replays"] == 9


def test_composite_graph_bit_identical():
    """Replay re-executes the same ufunc sequence: exact equality expected."""
    eager = value_and_grad(_composite)
    comp = compiled_value_and_grad(_composite)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=12)
        ve, ge = eager(x)
        vc, gc = comp(x)
        assert vc == ve
        assert np.array_equal(gc, ge)


def test_mlp_forward_matches_eager():
    mlp = MLP(2, [8, 8], 1)
    params = mlp.init_params(seed=3)
    x = np.random.default_rng(4).normal(size=(16, 2))
    target = np.sin(x[:, :1].sum(axis=1, keepdims=True))

    def loss(p):
        pred = mlp.apply(p, x)
        return ops.mean(ops.square(pred - target))

    eager = value_and_grad_tree(loss)
    comp = compiled_value_and_grad_tree(loss)
    rng = np.random.default_rng(5)
    for _ in range(6):
        leaves, _ = tree_flatten(params)
        ve, ge = eager(params)
        vc, gc = comp(params)
        assert vc == ve
        ge_l, _ = tree_flatten(ge)
        gc_l, _ = tree_flatten(gc)
        for a, b in zip(ge_l, gc_l):
            assert np.array_equal(a, b)
        # perturb the parameters for the next round
        params = [
            {"W": l["W"] + 0.01 * rng.normal(size=l["W"].shape),
             "b": l["b"] + 0.01 * rng.normal(size=l["b"].shape)}
            for l in params
        ]


@pytest.mark.parametrize("backend", ["dense", "local"])
def test_laplace_dp_cost_matches_eager(backend):
    prob = LaplaceControlProblem(SquareCloud(8), backend=backend)
    eager = LaplaceDP(prob, compile=False)
    comp = LaplaceDP(prob, compile=True)
    rng = np.random.default_rng(6)
    for _ in range(5):
        c = rng.normal(scale=0.2, size=prob.n_control)
        ve, ge = eager.value_and_grad(c)
        vc, gc = comp.value_and_grad(c)
        assert vc == ve
        assert np.array_equal(gc, ge)


def test_sparse_pattern_replay_refreshes_factorisation():
    """Matrix *values* on the tape: each replay must re-factorise."""
    n = 20
    rng = np.random.default_rng(7)
    dense = np.diag(rng.uniform(2.0, 3.0, size=n))
    dense[np.arange(n - 1), np.arange(1, n)] = 0.3
    rows, cols = np.nonzero(dense)
    b = rng.normal(size=n)

    def f(data):
        x = sparse_pattern_solve(rows, cols, (n, n), data, b)
        return ops.sum_(ops.square(x))

    eager = value_and_grad(f)
    comp = compiled_value_and_grad(f)
    for _ in range(4):
        data = dense[rows, cols] + rng.uniform(0, 0.5, size=rows.size)
        ve, ge = eager(data)
        vc, gc = comp(data)
        np.testing.assert_allclose(vc, ve, rtol=1e-12)
        np.testing.assert_allclose(gc, ge, rtol=1e-12)


def test_lu_solver_replay_matches_eager():
    n = 15
    rng = np.random.default_rng(8)
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    solver = LUSolver(A)

    def f(b):
        return ops.sum_(ops.square(solver(b)))

    eager = value_and_grad(f)
    comp = compiled_value_and_grad(f)
    for _ in range(4):
        b = rng.normal(size=n)
        ve, ge = eager(b)
        vc, gc = comp(b)
        assert vc == ve and np.array_equal(gc, ge)


# ----------------------------------------------------------------------
# Re-trace on signature change
# ----------------------------------------------------------------------
def test_shape_change_triggers_retrace():
    comp = compiled_value_and_grad(lambda x: ops.sum_(ops.square(x)))
    for size in (5, 5, 9, 9, 5):
        x = np.arange(size, dtype=np.float64)
        v, g = comp(x)
        assert v == float(np.sum(x**2))
        assert np.array_equal(g, 2.0 * x)
    info = comp.cache_info()
    assert info["traces"] == 2  # one per distinct shape
    assert info["replays"] == 3
    assert info["programs"] == 2


def test_constant_operand_change_triggers_retrace():
    """Baked (non-diff) operands are content-keyed: new values, new trace."""
    comp = compiled_value_and_grad(lambda x, w: ops.sum_(ops.mul(x, w)))
    x = np.ones(4)
    w1, w2 = np.full(4, 2.0), np.full(4, 3.0)
    assert comp(x, w1)[0] == 8.0
    assert comp(x, w1)[0] == 8.0
    assert comp(x, w2)[0] == 12.0  # stale replay would still give 8.0
    assert comp.cache_info()["traces"] == 2


def test_replay_rejects_mismatched_shape():
    x = np.ones(6)
    vg = compiled_value_and_grad(lambda t: ops.sum_(ops.square(t)))
    vg(x)
    (prog,) = vg._cache.values()
    with pytest.raises(CompileError):
        prog.replay([np.ones(7)])


# Constants nested in containers: NumPy's repr elides the middle of an
# array this long, so only a content digest tells the two apart.
_A = np.zeros(2000)
_A2 = _A.copy()
_A2[1000] = 5.0


def _shifted_sq(x, a):
    return ops.sum_(ops.square(ops.add(x, a)))


def _assert_same_calls(comp, eager, calls):
    for call in calls:
        vc, gc = call(comp)
        ve, ge = call(eager)
        assert vc == ve
        _assert_grads_equal(gc, ge)
    assert comp.cache_info()["traces"] == len(calls)


def test_constant_array_in_a_list_is_keyed_by_content():
    assert repr([_A]) == repr([_A2])
    f = lambda x, consts: _shifted_sq(x, consts[0])
    x = np.zeros(2000)
    _assert_same_calls(
        compiled_value_and_grad(f),
        value_and_grad(f),
        [lambda vg, a=a: vg(x, [a]) for a in (_A, _A2)],
    )


def test_constant_array_in_a_dict_is_keyed_by_content():
    f = lambda p, consts: _shifted_sq(p["x"], consts["A"])
    p = {"x": np.ones(2000)}
    _assert_same_calls(
        compiled_value_and_grad_tree(f),
        value_and_grad_tree(f),
        [lambda vg, a=a: vg(p, {"A": a}) for a in (_A, _A2)],
    )


def test_constant_array_in_a_kwarg_tuple_is_keyed_by_content():
    f = lambda x, scale=(): _shifted_sq(x, scale[0])
    x = np.zeros(2000)
    _assert_same_calls(
        compiled_value_and_grad(f),
        value_and_grad(f),
        [lambda vg, a=a: vg(x, scale=(a,)) for a in (_A, _A2)],
    )


# ----------------------------------------------------------------------
# What the flat and tree transforms share, and where they differ
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [value_and_grad, compiled_value_and_grad, value_and_grad_tree,
     compiled_value_and_grad_tree],
    ids=lambda m: m.__name__,
)
def test_non_scalar_output_error_names_the_transform(make):
    with pytest.raises(ValueError, match=rf"^{make.__name__} requires a scalar"):
        make(lambda x: ops.mul(x, 2.0))(np.ones(3))


@pytest.mark.parametrize("make", [value_and_grad, compiled_value_and_grad],
                         ids=lambda m: m.__name__)
def test_list_argument_is_one_array_leaf(make):
    vg = make(lambda x: ops.sum_(ops.square(x)))
    for _ in range(2):  # compiled: the trace, then a replay
        v, g = vg([1.0, 2.0])
        assert v == 5.0
        assert isinstance(g, np.ndarray)
        np.testing.assert_array_equal(g, [2.0, 4.0])


# ----------------------------------------------------------------------
# Restricted calls: ``wrt=`` one top-level parameter key
# ----------------------------------------------------------------------
_MLP_U, _MLP_C = MLP(2, [6], 1), MLP(1, [4], 1)
_X_WRT = np.random.default_rng(7).uniform(size=(10, 2))


def _wrt_loss(p):
    u = _MLP_U.apply(p["u"], _X_WRT)
    c = _MLP_C.apply(p["c"], _X_WRT[:, :1])
    return ops.mean(ops.square(u - c)) + 0.1 * ops.mean(ops.square(u))


def _wrt_params(seed):
    return {"u": _MLP_U.init_params(seed), "c": _MLP_C.init_params(seed + 1)}


def _assert_grads_equal(a, b):
    la, ta = tree_flatten(a)
    lb, tb = tree_flatten(b)
    assert ta == tb
    for x, y in zip(la, lb):
        assert np.array_equal(x, y)


def test_alternating_wrt_keeps_one_trace_and_one_program():
    """Alternating ``wrt`` calls are served from the signature's one
    cache entry, each bitwise equal to eager with the same ``wrt``."""
    eager = value_and_grad_tree(_wrt_loss)
    comp = compiled_value_and_grad_tree(_wrt_loss)
    for i in range(6):
        p, wrt = _wrt_params(i), ("u", "c")[i % 2]
        ve, ge = eager(p, wrt=wrt)
        vc, gc = comp(p, wrt=wrt)
        assert vc == ve
        _assert_grads_equal(gc, ge)
    info = comp.cache_info()
    assert info["traces"] == 1 and info["programs"] == 1
    assert info["replays"] == 5 and info["codegen_fallbacks"] == 0


def test_eager_wrt_zeroes_the_other_keys():
    """Eager ``wrt`` keeps the named key's gradients and zeroes the rest."""
    vg = value_and_grad_tree(_wrt_loss)
    p = _wrt_params(3)
    v, g = vg(p)
    for wrt, frozen in (("u", "c"), ("c", "u")):
        vw, gw = vg(p, wrt=wrt)
        assert vw == v
        _assert_grads_equal(gw[wrt], g[wrt])
        for z in tree_flatten(gw[frozen])[0]:
            assert z.dtype == np.float64 and not np.any(z)


@pytest.mark.parametrize("tier", ["eager", "compiled"])
def test_unknown_wrt_raises(tier):
    make = value_and_grad_tree if tier == "eager" else compiled_value_and_grad_tree
    vg = make(_wrt_loss)
    with pytest.raises(ValueError, match="not a top-level key"):
        vg(_wrt_params(0), wrt="v")
    vg(_wrt_params(0))
    with pytest.raises(ValueError, match="not a top-level key"):
        vg(_wrt_params(0), wrt="v")  # also once a program is cached
    list_vg = make(lambda p: ops.sum_(ops.square(p[0])))
    with pytest.raises(ValueError, match="not a dict"):
        list_vg([np.ones(3)], wrt=0)


def test_failed_restricted_kernel_runs_the_full_kernel(monkeypatch):
    """A restricted kernel that cannot be bound is replaced by the full
    kernel for that restriction — one warning, one fallback count, the
    same results (frozen gradients still zero)."""
    from repro.autodiff.codegen import CodegenProgram

    eager = value_and_grad_tree(_wrt_loss)
    comp = compiled_value_and_grad_tree(_wrt_loss)
    comp(_wrt_params(0))
    real = CodegenProgram._bind_kernels

    def broken(self, body):
        if len(body) < len(self._body):
            raise RuntimeError("synthetic bind failure")
        return real(self, body)

    monkeypatch.setattr(CodegenProgram, "_bind_kernels", broken)
    with pytest.warns(RuntimeWarning, match="full kernel"):
        vc, gc = comp(_wrt_params(1), wrt="c")
    ve, ge = eager(_wrt_params(1), wrt="c")
    assert vc == ve
    _assert_grads_equal(gc, ge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no second build, no second warning
        vc, gc = comp(_wrt_params(2), wrt="c")
    ve, ge = eager(_wrt_params(2), wrt="c")
    assert vc == ve
    _assert_grads_equal(gc, ge)
    info = comp.cache_info()
    assert info["codegen_fallbacks"] == 1 and info["programs"] == 1


# ----------------------------------------------------------------------
# Buffer ownership
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argnums", [0, (0,)], ids=["single", "tuple"])
def test_caller_arrays_are_never_overwritten(argnums):
    """The program copies inputs into buffers it owns (no aliasing)."""
    vg = compiled_value_and_grad(
        lambda x: ops.sum_(ops.square(ops.sin(x))), argnums=argnums
    )
    a = np.arange(4.0)
    vg(a)  # trace
    b = np.full(4, 9.0)
    vg(b)  # compiled call
    np.testing.assert_array_equal(a, np.arange(4.0))
    np.testing.assert_array_equal(b, np.full(4, 9.0))
    assert vg.cache_info()["replays"] == 1


def test_tree_caller_params_are_never_overwritten():
    vg = compiled_value_and_grad_tree(
        lambda p: ops.sum_(ops.square(p["w"] * p["b"]))
    )
    p0 = {"w": np.arange(3.0), "b": np.ones(3)}
    vg(p0)
    vg({"w": np.full(3, 5.0), "b": np.full(3, 2.0)})
    np.testing.assert_array_equal(p0["w"], np.arange(3.0))
    np.testing.assert_array_equal(p0["b"], np.ones(3))


def test_dropped_program_is_freed_without_cyclic_gc():
    """Reference counting alone frees a dropped wrapper's program and
    its arena: the generated kernel must not sit in a reference cycle."""
    vg = compiled_value_and_grad(lambda x: ops.sum_(ops.sin(ops.exp(x)) * x))
    gc.disable()
    try:
        vg(np.linspace(0.1, 1.0, 64))  # trace + compile
        vg(np.linspace(0.2, 1.1, 64))  # compiled call
        (prog,) = vg._cache.values()
        prog_ref = weakref.ref(prog)
        buf_ref = weakref.ref(prog._leaf_bufs[0])
        del prog, vg
        assert prog_ref() is None, "compiled program kept alive by a cycle"
        assert buf_ref() is None, "program buffer kept alive by a cycle"
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def test_profile_counts_and_reuse():
    comp = compiled_value_and_grad(
        lambda x: ops.sum_(ops.square(ops.mul(x, 3.0))), profile=True
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        comp(rng.normal(size=50))
    p = comp.profile
    assert p.n_traces == 1
    assert p.n_replays == 4
    assert p.n_eager_calls == 0
    assert p.persistent_bytes > 0
    (fused,) = [k for name, k in p.kernels.items() if "square" in name]
    assert fused.calls == 4 and fused.fwd_seconds > 0.0
    report = p.report()
    assert "square" in report and "sum" in report


# ----------------------------------------------------------------------
# Allocation discipline of the audited VJPs
# ----------------------------------------------------------------------
def test_sum_vjp_returns_readonly_view():
    x = Tensor(np.arange(12.0), requires_grad=True)
    y = ops.sum_(x)
    (_, vjp), = y._parents
    g = np.array(2.5)
    out = vjp(g)
    assert out.shape == (12,)
    assert not out.flags.writeable
    assert np.shares_memory(out, g)


def test_mean_vjp_returns_stride0_view():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    y = ops.mean(x)
    (_, vjp), = y._parents
    out = vjp(np.array(1.0))
    assert out.shape == (3, 4)
    assert not out.flags.writeable
    assert out.strides == (0, 0)


def test_getitem_forward_is_view():
    x = Tensor(np.arange(10.0), requires_grad=True)
    y = x[2:7]
    assert np.shares_memory(y.data, x.data)
