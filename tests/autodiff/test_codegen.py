"""Compiled-tier conformance: parity with eager, plus fallback.

Every program the fused-source backend executes must produce the same
value and gradients as the eager tape, bit for bit — the conformance
table in ``tests/conftest.py`` supplies one program per primitive/shape
regime (including the vbatch-composed path), and dedicated cases cover
the stacked-matmul VJPs, the cotangent-aliasing rewrites, and the
solve-family programs whose opaque closures run inside generated source.
Parity is checked at inputs other than the traced ones: build-time
validation only replays the traced inputs, so a stale-buffer bug can
pass it.  The same holds for aux outputs (``has_aux``).  When lowering
or validation fails, the wrapper must fall back to the eager tape —
warning once, never changing results.
"""

from __future__ import annotations

import itertools
import warnings
import zlib

import numpy as np
import pytest

from repro.autodiff import linalg, ops
from repro.autodiff.batching import vbatch
from repro.autodiff.compile import (
    ReplayProfile,
    compiled_value_and_grad,
    compiled_value_and_grad_tree,
)
from repro.autodiff.elementwise import ELEMENTWISE
from repro.autodiff.functional import value_and_grad
from repro.autodiff.lowering import lower
from repro.autodiff.tensor import Tensor, asdata, tensor
from repro.nn.pytree import value_and_grad_tree


def _rng(case, salt: str = ""):
    return np.random.default_rng(zlib.crc32((case.label + salt).encode()))


def _grads_tuple(g):
    return g if isinstance(g, (tuple, list)) else (g,)


def _perturbed(args, diff_idx, seed):
    """``args`` with every differentiated array scaled elementwise by a
    random factor in [0.95, 1.05].  Signs are preserved, so inputs stay
    in their domain (``log``, ``sqrt``) and a sign-derived ``where``
    condition — frozen at trace time, like ``jax.jit``'s — still holds."""
    rng = np.random.default_rng(seed)
    return tuple(
        a * rng.uniform(0.95, 1.05, np.shape(a)) if i in diff_idx else a
        for i, a in enumerate(args)
    )


def _assert_tier_matches_eager(loss, args, diff_idx, label):
    """A trace at ``args`` plus two compiled calls at freshly perturbed
    differentiated inputs must each equal eager at the same arguments,
    bitwise, with no fallback."""
    nums = (diff_idx,) if isinstance(diff_idx, int) else tuple(diff_idx)
    arg_sets = [tuple(args)] + [_perturbed(args, nums, s) for s in (1, 2)]
    expected = [value_and_grad(loss, argnums=diff_idx)(*a) for a in arg_sets]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a codegen fallback warns: fail loud
        cvg = compiled_value_and_grad(loss, argnums=diff_idx)
        results = [cvg(*a) for a in arg_sets]
    info = cvg.cache_info()
    assert info["codegen_fallbacks"] == 0, label
    assert info["programs"] == 1 and info["replays"] == 2, label
    for call, ((v, g), (ev, eg)) in enumerate(zip(results, expected)):
        assert float(v) == float(ev), f"{label} call {call}"
        for a, b in zip(_grads_tuple(g), _grads_tuple(eg)):
            a, b = asdata(a), asdata(b)
            assert np.array_equal(a, b), (
                f"{label} call {call}: compiled grad deviates, "
                f"max |diff| = {np.max(np.abs(a - b))}"
            )


# ----------------------------------------------------------------------
# Conformance table: every primitive, including vbatch composition
# ----------------------------------------------------------------------
def test_codegen_matches_eager_on_conformance_case(batch_case):
    case = batch_case
    if not case.compileable:
        pytest.skip("argument not hashable/wrappable by the compile cache")
    args = case.make_args(_rng(case), 3)
    diff_idx = tuple(i for i, d in enumerate(case.diff) if d)

    def loss(*call_args):
        return ops.sum_(vbatch(case.fn, in_axes=case.in_axes)(*call_args))

    _assert_tier_matches_eager(loss, args, diff_idx, case.label)


# ----------------------------------------------------------------------
# Stacked matmul: the general-rank symbolic VJPs
# ----------------------------------------------------------------------
STACKED_MATMUL_SHAPES = [
    ((3, 4), (4, 2)),          # plain 2x2
    ((2, 3, 4), (4, 2)),       # stacked @ matrix
    ((3, 4), (2, 4, 2)),       # matrix @ stacked
    ((2, 3, 4), (2, 4, 2)),    # equal batch
    ((1, 3, 4), (5, 4, 2)),    # broadcast batch
    ((5, 2, 3, 4), (4, 2)),    # rank-4 @ matrix
]


@pytest.mark.parametrize(
    "sa,sb", STACKED_MATMUL_SHAPES,
    ids=[f"{sa}@{sb}" for sa, sb in STACKED_MATMUL_SHAPES],
)
def test_codegen_stacked_matmul_parity(sa, sb):
    rng = np.random.default_rng(zlib.crc32(f"{sa}{sb}".encode()))
    A, B = rng.standard_normal(sa), rng.standard_normal(sb)

    def loss(a, b):
        return ops.sum_(ops.square(ops.matmul(a, b)))

    _assert_tier_matches_eager(loss, (A, B), (0, 1), f"matmul {sa}@{sb}")


# ----------------------------------------------------------------------
# Binary elementwise ops: every unbroadcast plan of every VJP slot
# ----------------------------------------------------------------------
BROADCAST_SHAPES = [(), (3,), (4, 3), (4, 1), (1, 3)]
BINARY_OPS = {
    "add": ops.add, "sub": ops.sub, "mul": ops.mul, "div": ops.div,
    "power": ops.power, "maximum": ops.maximum, "minimum": ops.minimum,
    # a fixed checkerboard condition over the broadcast output shape
    "where": lambda a, b: ops.where(
        np.indices(np.broadcast_shapes(np.shape(asdata(a)), np.shape(asdata(b))))
        .sum(axis=0) % 2 == 0,
        a, b,
    ),
}
BROADCAST_CASES = [
    (name, sa, sb, diff)
    for name in BINARY_OPS
    for sa in BROADCAST_SHAPES
    for sb in BROADCAST_SHAPES
    for diff in ((0, 1), (0,), (1,))  # both traced; b constant; a constant
]


@pytest.mark.parametrize(
    "name,sa,sb,diff", BROADCAST_CASES,
    ids=[f"{n}-{sa}-{sb}-d{''.join(map(str, d))}" for n, sa, sb, d in BROADCAST_CASES],
)
def test_codegen_binary_broadcast_slot_parity(name, sa, sb, diff):
    rng = np.random.default_rng(zlib.crc32(f"{name}{sa}{sb}".encode()))
    a, b = rng.uniform(0.5, 2.0, sa), rng.uniform(0.5, 2.0, sb)
    f = BINARY_OPS[name]

    def loss(x, y):
        return ops.sum_(ops.square(f(x, y)))

    _assert_tier_matches_eager(loss, (a, b), diff, f"{name} {sa} {sb} d{diff}")


@pytest.mark.parametrize("shape", BROADCAST_SHAPES, ids=str)
@pytest.mark.parametrize("name", list(BINARY_OPS))
def test_codegen_binary_same_operand_parity(name, shape):
    # f(x, x): both slots push into one cotangent (ties for max/min).
    x = np.random.default_rng(zlib.crc32(f"{name}{shape}".encode())).uniform(
        0.5, 2.0, shape
    )
    f = BINARY_OPS[name]
    _assert_tier_matches_eager(
        lambda t: ops.sum_(ops.square(f(t, t))), (x,), 0, f"{name}(x, x) {shape}"
    )


@pytest.mark.parametrize("op", [
    lambda a: ops.maximum(a, 0.7),
    lambda a: ops.minimum(a, 0.7),
    lambda a: ops.clip(a, -1.0, 0.7),
], ids=["maximum", "minimum", "clip"])
def test_codegen_zero_dim_selection_ops_compile(op):
    # A 0-d comparison yields a NumPy bool scalar, not a buffer: the tie
    # mask must still be an array the forward can refresh in place.
    _assert_tier_matches_eager(
        lambda a: ops.sum_(op(a)), (np.array(1.2),), 0, "0-d selection"
    )


# ----------------------------------------------------------------------
# Read-sets: every buffer a table entry's VJP reads survives DBE
# ----------------------------------------------------------------------
_STATIC_ARGS = {"cond": np.indices((4, 3)).sum(axis=0) % 2 == 0, "lo": 0.8, "hi": 1.6}
# Every entry with each non-empty set of traced operands; an
# ``eager_only`` slot would make the node opaque, so it stays constant.
READ_SET_CASES = [
    (e, diff)
    for e in ELEMENTWISE.values()
    for diff in itertools.chain.from_iterable(
        itertools.combinations(
            [k for k in range(len(e.operands)) if k not in e.eager_only], r
        )
        for r in (2, 1)
    )
]


@pytest.mark.parametrize(
    "entry,diff", READ_SET_CASES,
    ids=[f"{e.name}-d{''.join(map(str, d))}" for e, d in READ_SET_CASES],
)
def test_codegen_read_sets_keep_what_each_vjp_reads(entry, diff):
    # Each traced operand is an interior elementwise value and the output
    # only feeds a reduction, so dead-buffer elimination drops every
    # buffer the entry's read-sets leave out: a VJP reading one of them
    # fails the build, and the program falls back.
    f = getattr(ops, entry.py_name)
    rng = np.random.default_rng(zlib.crc32(entry.name.encode()))
    args = tuple(rng.uniform(0.5, 2.0, (4, 3)) for _ in entry.operands)

    def loss(*xs):
        operands = iter(ops.add(x, 0.0) for x in xs)
        return ops.sum_(f(*(
            next(operands) if p in ("a", "b") else _STATIC_ARGS[p]
            for p in entry.params
        )))

    _assert_tier_matches_eager(loss, args, diff, f"{entry.name} d{diff} read-sets")


# ----------------------------------------------------------------------
# Solve-family programs lower WITHOUT falling back (opaque closures run
# inside the generated source via recorded F/V callbacks)
# ----------------------------------------------------------------------
def test_codegen_solve_program_does_not_fall_back():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)

    def loss(b):
        x = linalg.solve(A, ops.exp(b))
        return ops.sum_(ops.square(x)) + ops.sum_(b * x)

    _assert_tier_matches_eager(loss, (np.linspace(0.1, 1.0, 6),), 0, "solve")


def test_codegen_lu_solver_program():
    rng = np.random.default_rng(8)
    solver = linalg.LUSolver(rng.standard_normal((5, 5)) + 5.0 * np.eye(5))

    def loss(b):
        return ops.sum_(ops.square(solver(ops.sin(b))))

    _assert_tier_matches_eager(loss, (np.linspace(0.1, 1.0, 5),), 0, "lu")


# ----------------------------------------------------------------------
# Cotangent-aliasing rewrites: regression programs
# ----------------------------------------------------------------------
class TestCotangentAliasing:
    def test_view_chain_alias(self):
        # reshape/transpose cotangents are forwarded as zero-copy views.
        def loss(x):
            y = ops.transpose(ops.reshape(ops.exp(x), (3, 4)))
            return ops.sum_(ops.square(y))

        _assert_tier_matches_eager(
            loss, (np.linspace(0.1, 1.0, 12),), 0, "view-alias"
        )

    def test_identity_add_alias(self):
        # add forwards its cotangent untouched when shapes match …
        def loss(x, y):
            return ops.sum_(ops.square(x + y))

        a = np.linspace(0.1, 1.0, 9)
        b = np.linspace(1.0, 2.0, 9)
        _assert_tier_matches_eager(loss, (a, b), (0, 1), "add-alias")

    def test_broadcast_add_not_aliased(self):
        # … but an unbroadcast reduction blocks the rewrite.
        def loss(x, y):
            return ops.sum_(ops.square(x + y))  # (3,) + (4,3)

        a = np.linspace(0.1, 1.0, 3)
        b = np.linspace(1.0, 2.0, 12).reshape(4, 3)
        _assert_tier_matches_eager(loss, (a, b), (0, 1), "bcast-add")

    def test_fan_out_not_aliased(self):
        # Two pushes into one destination: accumulation must survive.
        def loss(x):
            t = ops.exp(x)
            return ops.sum_(ops.sin(t)) + ops.sum_(ops.square(t))

        _assert_tier_matches_eager(
            loss, (np.linspace(0.1, 1.0, 10),), 0, "fan-out"
        )

    def test_sub_slot1_not_aliased(self):
        # sub's second operand needs negation — no identity forwarding.
        def loss(x, y):
            return ops.sum_(ops.square(x - ops.exp(y)))

        a = np.linspace(0.1, 1.0, 8)
        b = np.linspace(0.0, 0.5, 8)
        _assert_tier_matches_eager(loss, (a, b), (0, 1), "sub-slot1")


# ----------------------------------------------------------------------
# Fallback: lowering/validation failure degrades to eager, with warning
# ----------------------------------------------------------------------
def test_codegen_falls_back_to_eager_on_lowering_failure(monkeypatch):
    import repro.autodiff.compile as compile_mod

    def boom(root, leaves, outputs=(), profiled=False):
        raise compile_mod.CompileError("synthetic lowering failure")

    def loss(x):
        return ops.sum_(ops.square(x))

    x = np.linspace(0.1, 1.0, 6)
    ev, eg = value_and_grad(loss)(x)

    import repro.autodiff.codegen as codegen_mod
    monkeypatch.setattr(codegen_mod, "codegen_program", boom)
    with pytest.warns(RuntimeWarning, match="falling back"):
        vg = compiled_value_and_grad(loss)
        vg(x)  # trace + failed build
    v, g = vg(x)  # eager execution
    info = vg.cache_info()
    assert info["codegen_fallbacks"] == 1
    assert info["programs"] == 0 and info["eager"] == 1
    assert v == ev
    np.testing.assert_array_equal(g, eg)


# ----------------------------------------------------------------------
# Aux outputs (has_aux): pinned values, recomputed by every kernel run
# ----------------------------------------------------------------------
_X_AUX = np.linspace(-1.0, 1.0, 12).reshape(4, 3)


def _aux_loss(p):
    """A loss returning a reduction and an elementwise scalar as aux.

    ``scaled`` is ``mul(0.5, sum)``: its only consumer, ``mul(3.0, .)``,
    never reads it in the backward, so dead-buffer elimination would
    hand its buffer to the arena if the aux pin did not keep it.
    """
    h = ops.tanh(ops.matmul(_X_AUX, p["W"]) + p["b"])
    fit = ops.mean(ops.square(h))
    scaled = 0.5 * ops.sum_(h * p["b"])
    return fit + 3.0 * scaled, (fit, scaled)


def _aux_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"W": rng.standard_normal((3, 5)), "b": rng.uniform(0.1, 1.0, 5)}


def _perturbed_tree(params, seed):
    rng = np.random.default_rng(seed)
    return {k: v * rng.uniform(0.95, 1.05, v.shape) for k, v in params.items()}


def test_aux_values_match_eager_bitwise():
    """Trace plus two compiled calls at perturbed inputs: value, aux and
    gradients all equal eager's, with no fallback."""
    p0 = _aux_params()
    param_sets = [p0, _perturbed_tree(p0, 1), _perturbed_tree(p0, 2)]
    eager = value_and_grad_tree(_aux_loss, has_aux=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cvg = compiled_value_and_grad_tree(_aux_loss, has_aux=True)
        results = [cvg(p) for p in param_sets]
    info = cvg.cache_info()
    assert info["codegen_fallbacks"] == 0
    assert info["programs"] == 1 and info["replays"] == 2
    for call, (p, ((v, aux), g)) in enumerate(zip(param_sets, results)):
        (ev, eaux), eg = eager(p)
        assert v == ev, call
        assert len(aux) == 2 and aux == eaux, call
        for k in g:
            assert np.array_equal(g[k], eg[k]), (call, k)


def test_aux_elementwise_intermediate_is_pinned():
    """The elementwise aux is exactly what dead-buffer elimination drops
    without the pin; pinned, it keeps its buffer and stays fresh."""
    p0 = _aux_params(3)
    leaves = {k: Tensor(v.copy(), requires_grad=True) for k, v in p0.items()}
    root, (fit, scaled) = _aux_loss(leaves)
    plain = lower(root, list(leaves.values()))
    pinned = lower(root, list(leaves.values()), outputs=(fit, scaled))
    idx = pinned.output_pos[1]
    assert plain.nodes[idx].node is scaled and plain.nodes[idx].value_transient
    assert not pinned.nodes[idx].value_transient

    eager = value_and_grad_tree(_aux_loss, has_aux=True)
    cvg = compiled_value_and_grad_tree(_aux_loss, has_aux=True)
    cvg(p0)  # trace
    for seed in (4, 5):
        p = _perturbed_tree(p0, seed)
        (_, (_, got)), _ = cvg(p)
        (_, (_, want)), _ = eager(p)
        assert got == want, seed
    assert cvg.cache_info()["replays"] == 2


def test_aux_off_the_tape_falls_back_to_eager():
    """An aux the kernel would not recompute (here a tensor built from
    raw input data, off the tape) must never come back stale: the
    signature falls back to eager with one warning and one count."""
    def loss(p):
        return ops.sum_(ops.square(p["w"])), (tensor(np.sum(p["w"].data)),)

    cvg = compiled_value_and_grad_tree(loss, has_aux=True)
    with pytest.warns(RuntimeWarning, match="falling back"):
        (_, (a0,)), _ = cvg({"w": np.arange(3.0)})  # trace + failed build
    (v, (a1,)), g = cvg({"w": np.full(3, 2.0)})  # eager execution
    assert (a0, a1) == (3.0, 6.0)
    assert v == 12.0 and np.array_equal(g["w"], np.full(3, 4.0))
    info = cvg.cache_info()
    assert info["codegen_fallbacks"] == 1
    assert info["programs"] == 0 and info["eager"] == 1


# ----------------------------------------------------------------------
# Profiling: per-fused-kernel stats populate
# ----------------------------------------------------------------------
def test_codegen_profile_reports_kernels():
    def loss(x):
        return ops.sum_(ops.sin(ops.exp(x)) * x)

    x = np.linspace(0.1, 1.0, 32)
    vg = compiled_value_and_grad(loss, profile=True)
    for _ in range(4):
        vg(x)
    p = vg.profile
    assert isinstance(p, ReplayProfile)
    assert p.n_replays == 3  # first call traces
    assert p.kernels, "profiled codegen must record per-kernel stats"
    assert any("+" in name for name in p.kernels), (
        f"expected a fused kernel among {sorted(p.kernels)}"
    )
    assert p.fused_ops > 0 and p.fusion_groups > 0
    assert p.arena_slots >= 0
    report = p.report()
    assert "generated kernels" in report
    assert "fusion groups" in report


# ----------------------------------------------------------------------
# Restricted kernels: only the backward that reaches the leaves asked for
# ----------------------------------------------------------------------
_X_PAIR = np.linspace(-1.0, 1.0, 24).reshape(12, 2)


def _pair_loss(p):
    """Two small networks meeting in one loss, like the PINN pair: the
    ``u`` branch alone also feeds an aux term."""
    h = ops.tanh(ops.matmul(_X_PAIR, p["u"]["W"]) + p["u"]["b"])
    c = ops.tanh(ops.matmul(_X_PAIR[:, :1], p["c"]["W"]) + p["c"]["b"])
    fit = ops.mean(ops.square(h - c))
    reg = 0.1 * ops.sum_(ops.square(h))
    return fit + reg, (fit, reg)


def _pair_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "u": {"W": rng.standard_normal((2, 5)), "b": rng.uniform(0.1, 1.0, 5)},
        "c": {"W": rng.standard_normal((1, 5)), "b": rng.uniform(0.1, 1.0, 5)},
    }


def _perturbed_pair(params, seed):
    rng = np.random.default_rng(seed)
    return {
        k: {n: v * rng.uniform(0.95, 1.05, v.shape) for n, v in sub.items()}
        for k, sub in params.items()
    }


def _leaf_subset(params, key):
    from repro.nn.pytree import tree_flatten, tree_key_leaves

    return tree_key_leaves(tree_flatten(params)[1], key)


@pytest.mark.parametrize("wrt", ["u", "c"])
def test_restricted_replay_matches_full_replay_bitwise(wrt):
    """Value, aux and the active network's gradients of a restricted
    replay equal the full replay's bit for bit; the frozen network's are
    zero arrays even right after a full replay left its buffers set."""
    frozen = "c" if wrt == "u" else "u"
    p0 = _pair_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cvg = compiled_value_and_grad_tree(_pair_loss, has_aux=True)
        cvg(p0)  # trace
        for seed in (1, 2):
            p = _perturbed_pair(p0, seed)
            (v, aux), g = cvg(p)  # full replay: every g buffer written
            (rv, raux), rg = cvg(p, wrt=wrt)
            assert rv == v and raux == aux, seed
            for name in ("W", "b"):
                assert np.array_equal(rg[wrt][name], g[wrt][name]), (seed, name)
                z = rg[frozen][name]
                assert z.shape == g[frozen][name].shape and not np.any(z)
                assert np.any(g[frozen][name]), "the full replay set it"
    assert cvg.cache_info()["codegen_fallbacks"] == 0


def test_restricted_kernel_runs_fewer_backward_steps():
    """The restricted kernel keeps only the steps whose destination
    depends on a requested leaf: each network's kernel drops the other's
    backward, and no step is in neither."""
    p0 = _pair_params()
    cvg = compiled_value_and_grad_tree(_pair_loss, has_aux=True)
    cvg(p0)
    (prog,) = cvg._cache.values()
    full = prog.n_bwd_steps()
    u, c = (prog.n_bwd_steps(_leaf_subset(p0, k)) for k in ("u", "c"))
    assert 0 < c < u < full
    assert u + c >= full  # steps into the shared trunk count for both
    assert prog.n_bwd_steps(frozenset()) == 0


def test_profiled_restricted_replay():
    """A profiled wrapper runs the profiled variant of each restricted
    kernel: same results as the unprofiled tier, every call counted."""
    p0 = _pair_params()
    plain = compiled_value_and_grad_tree(_pair_loss, has_aux=True)
    prof = compiled_value_and_grad_tree(_pair_loss, has_aux=True, profile=True)
    plain(p0)
    prof(p0)
    for i, seed in enumerate((1, 2, 3, 4)):
        p = _perturbed_pair(p0, seed)
        wrt = "uc"[i % 2]
        (v, aux), g = plain(p, wrt=wrt)
        (pv, paux), pg = prof(p, wrt=wrt)
        assert (pv, paux) == (v, aux)
        for k in ("u", "c"):
            for name in ("W", "b"):
                assert np.array_equal(pg[k][name], g[k][name]), (seed, k, name)
    p = prof.profile
    assert p.n_traces == 1 and p.n_replays == 4
    assert sum(k.bwd_seconds for k in p.kernels.values()) > 0.0
    assert prof.cache_info()["codegen_fallbacks"] == 0
