"""Differentiable primitive operations.

Each primitive computes its forward value with plain NumPy (vectorised, no
Python loops over elements — see the HPC guides) and records one VJP closure
per differentiable input.  The VJPs are standard; where broadcasting is
possible the cotangent is reduced with :func:`~repro.autodiff.tensor.unbroadcast`.

Primitives accept raw arrays or :class:`~repro.autodiff.tensor.Tensor`
inputs interchangeably.

Replay contract
---------------
Every primitive also records a *forward-replay closure* ``fwd(out)`` on its
tape node: called with the node's own data buffer, it recomputes the forward
value **in place** from the parent buffers it captured by reference at trace
time.  Because the VJP closures capture those same arrays by reference, a
recorded tape can be re-executed for new input values without rebuilding a
single Tensor or closure — the compiled tier (:mod:`repro.autodiff.compile`)
calls it for every op it cannot lower.  Three rules keep replay sound:

1. ``fwd`` writes only into the supplied buffer (plus any value-dependent
   auxiliaries such as the ``maximum`` tie mask, which it refreshes in
   place so the captured VJP closures stay current);
2. an op whose output *aliases* a parent buffer (reshape/transpose views,
   basic-index views) records the :data:`~repro.autodiff.tensor.VIEW_FWD`
   sentinel instead — the view updates for free when the parent does;
3. VJPs never capture value-dependent temporaries that ``fwd`` does not
   refresh (e.g. ``power``'s exponent branch recomputes from parent data).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff.batching import composite, primitive
from repro.autodiff.tensor import (
    ArrayLike,
    Tensor,
    VIEW_FWD,
    asdata,
    make_node,
    tensor,
    unbroadcast,
)

Axis = Union[None, int, Tuple[int, ...]]


def _broadcast_view(
    g: np.ndarray, shape: Tuple[int, ...], cache: Optional[list] = None
) -> np.ndarray:
    """Broadcast ``g`` to ``shape`` without copying.

    The result is a read-only stride-0 view: reduction VJPs return it
    directly instead of materialising a full-size copy, and every consumer
    (cotangent accumulation, ``np.copyto`` into replay buffers) only reads
    it.  Callers holding a returned gradient must not mutate it in place —
    NumPy enforces this (the view is non-writeable).

    ``cache`` is an optional two-slot list pinned by a reduction VJP
    closure.  Under compiled replay the cotangent arriving at a node is
    the *same* preallocated buffer on every call, so the stride-0 view of
    it is constructed once and then returned by identity lookup (~50 ns
    instead of ~3 µs for ``np.broadcast_to``).  The pinned reference in
    slot 0 keeps the array alive, so the ``is`` check can never collide
    with a recycled ``id``; eager backwards pass fresh cotangents and
    simply miss.
    """
    if cache is not None:
        if cache[0] is g:
            return cache[1]
        view = np.broadcast_to(g, shape)
        cache[0] = g
        cache[1] = view
        return view
    return np.broadcast_to(g, shape)


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
@primitive("add")
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a + b`` with NumPy broadcasting."""
    ta, tb = tensor(a), tensor(b)
    x, y = ta.data, tb.data
    out = x + y
    return make_node(
        out,
        [
            (ta, lambda g, s=x.shape: unbroadcast(g, s)),
            (tb, lambda g, s=y.shape: unbroadcast(g, s)),
        ],
        "add",
        fwd=lambda o, x=x, y=y: np.add(x, y, out=o),
        meta=((x, y), None),
    )


@primitive("sub")
def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a - b``."""
    ta, tb = tensor(a), tensor(b)
    x, y = ta.data, tb.data
    out = x - y
    return make_node(
        out,
        [
            (ta, lambda g, s=x.shape: unbroadcast(g, s)),
            (tb, lambda g, s=y.shape: unbroadcast(-g, s)),
        ],
        "sub",
        fwd=lambda o, x=x, y=y: np.subtract(x, y, out=o),
        meta=((x, y), None),
    )


@primitive("mul")
def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a * b``."""
    ta, tb = tensor(a), tensor(b)
    x, y = ta.data, tb.data
    out = x * y
    return make_node(
        out,
        [
            (ta, lambda g, o=y, s=x.shape: unbroadcast(g * o, s)),
            (tb, lambda g, o=x, s=y.shape: unbroadcast(g * o, s)),
        ],
        "mul",
        fwd=lambda o, x=x, y=y: np.multiply(x, y, out=o),
        meta=((x, y), None),
    )


@primitive("div")
def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a / b``."""
    ta, tb = tensor(a), tensor(b)
    x, y = ta.data, tb.data
    out = x / y
    return make_node(
        out,
        [
            (ta, lambda g, d=y, s=x.shape: unbroadcast(g / d, s)),
            (
                tb,
                lambda g, n=x, d=y, s=y.shape: unbroadcast(
                    -g * n / (d * d), s
                ),
            ),
        ],
        "div",
        fwd=lambda o, x=x, y=y: np.divide(x, y, out=o),
        meta=((x, y), None),
    )


@primitive("neg")
def neg(a: ArrayLike) -> Tensor:
    """Elementwise negation."""
    ta = tensor(a)
    return make_node(
        -ta.data,
        [(ta, lambda g: -g)],
        "neg",
        fwd=lambda o, x=ta.data: np.negative(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("power")
def power(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a ** b`` differentiable in both arguments.

    The exponent VJP uses ``log(a)`` and is therefore only valid for
    positive bases when the exponent requires gradients; for the common
    constant-exponent case (e.g. the cubic polyharmonic kernel ``r**3``)
    only the base branch is recorded.
    """
    ta, tb = tensor(a), tensor(b)
    out = ta.data ** tb.data

    def vjp_base(g: np.ndarray) -> np.ndarray:
        return unbroadcast(g * tb.data * ta.data ** (tb.data - 1.0), ta.data.shape)

    parents = [(ta, vjp_base)]
    if tb.needs_tape():

        def vjp_exp(g: np.ndarray) -> np.ndarray:
            x, y = ta.data, tb.data
            with np.errstate(divide="ignore", invalid="ignore"):
                loga = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), 0.0)
            return unbroadcast(g * (x ** y) * loga, y.shape)

        parents.append((tb, vjp_exp))
    return make_node(
        out,
        parents,
        "power",
        fwd=lambda o, x=ta.data, y=tb.data: np.power(x, y, out=o),
        meta=((ta.data, tb.data), None),
    )


@primitive("square")
def square(a: ArrayLike) -> Tensor:
    """Elementwise square (faster than ``power(a, 2)``)."""
    ta = tensor(a)
    x = ta.data
    return make_node(
        x * x,
        [(ta, lambda g, x=x: 2.0 * g * x)],
        "square",
        fwd=lambda o, x=x: np.multiply(x, x, out=o),
        meta=((x,), None),
    )


@primitive("sqrt")
def sqrt(a: ArrayLike) -> Tensor:
    """Elementwise square root."""
    ta = tensor(a)
    out = np.asarray(np.sqrt(ta.data))

    def vjp(g: np.ndarray, o: np.ndarray = out) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return g * 0.5 / np.where(o > 0, o, np.inf)

    return make_node(
        out,
        [(ta, vjp)],
        "sqrt",
        fwd=lambda o, x=ta.data: np.sqrt(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("abs")
def abs_(a: ArrayLike) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    ta = tensor(a)
    return make_node(
        np.abs(ta.data),
        [(ta, lambda g, x=ta.data: g * np.sign(x))],
        "abs",
        fwd=lambda o, x=ta.data: np.abs(x, out=o),
        meta=((ta.data,), None),
    )


# ----------------------------------------------------------------------
# Elementwise transcendentals
# ----------------------------------------------------------------------
@primitive("exp")
def exp(a: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    ta = tensor(a)
    out = np.asarray(np.exp(ta.data))
    return make_node(
        out,
        [(ta, lambda g, o=out: g * o)],
        "exp",
        fwd=lambda o, x=ta.data: np.exp(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("log")
def log(a: ArrayLike) -> Tensor:
    """Elementwise natural logarithm."""
    ta = tensor(a)
    return make_node(
        np.log(ta.data),
        [(ta, lambda g, x=ta.data: g / x)],
        "log",
        fwd=lambda o, x=ta.data: np.log(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("sin")
def sin(a: ArrayLike) -> Tensor:
    """Elementwise sine."""
    ta = tensor(a)
    return make_node(
        np.sin(ta.data),
        [(ta, lambda g, x=ta.data: g * np.cos(x))],
        "sin",
        fwd=lambda o, x=ta.data: np.sin(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("cos")
def cos(a: ArrayLike) -> Tensor:
    """Elementwise cosine."""
    ta = tensor(a)
    return make_node(
        np.cos(ta.data),
        [(ta, lambda g, x=ta.data: -g * np.sin(x))],
        "cos",
        fwd=lambda o, x=ta.data: np.cos(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("tanh")
def tanh(a: ArrayLike) -> Tensor:
    """Elementwise hyperbolic tangent (the paper's PINN activation)."""
    ta = tensor(a)
    out = np.asarray(np.tanh(ta.data))
    return make_node(
        out,
        [(ta, lambda g, o=out: g * (1.0 - o * o))],
        "tanh",
        fwd=lambda o, x=ta.data: np.tanh(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("sinh")
def sinh(a: ArrayLike) -> Tensor:
    """Elementwise hyperbolic sine."""
    ta = tensor(a)
    return make_node(
        np.sinh(ta.data),
        [(ta, lambda g, x=ta.data: g * np.cosh(x))],
        "sinh",
        fwd=lambda o, x=ta.data: np.sinh(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("cosh")
def cosh(a: ArrayLike) -> Tensor:
    """Elementwise hyperbolic cosine."""
    ta = tensor(a)
    return make_node(
        np.cosh(ta.data),
        [(ta, lambda g, x=ta.data: g * np.sinh(x))],
        "cosh",
        fwd=lambda o, x=ta.data: np.cosh(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("arctan")
def arctan(a: ArrayLike) -> Tensor:
    """Elementwise inverse tangent."""
    ta = tensor(a)
    return make_node(
        np.arctan(ta.data),
        [(ta, lambda g, x=ta.data: g / (1.0 + x * x))],
        "arctan",
        fwd=lambda o, x=ta.data: np.arctan(x, out=o),
        meta=((ta.data,), None),
    )


@primitive("sigmoid")
def sigmoid(a: ArrayLike) -> Tensor:
    """Elementwise logistic sigmoid."""
    ta = tensor(a)
    out = np.asarray(1.0 / (1.0 + np.exp(-ta.data)))

    def fwd(o: np.ndarray, x: np.ndarray = ta.data) -> None:
        np.negative(x, out=o)
        np.exp(o, out=o)
        o += 1.0
        np.divide(1.0, o, out=o)

    return make_node(
        out,
        [(ta, lambda g, o=out: g * o * (1.0 - o))],
        "sigmoid",
        fwd=fwd,
        meta=((ta.data,), None),
    )


# ----------------------------------------------------------------------
# Selection / clipping
# ----------------------------------------------------------------------
@primitive("maximum")
def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum; ties route the gradient to the first input."""
    ta, tb = tensor(a), tensor(b)
    x, y = ta.data, tb.data
    out = np.maximum(x, y)
    mask = x >= y

    # fwd refreshes the tie mask in place so the VJP closures (which
    # capture it by reference) stay valid when input values change.
    def fwd(o: np.ndarray, x=x, y=y, m=mask) -> None:
        np.maximum(x, y, out=o)
        np.greater_equal(x, y, out=m)

    return make_node(
        out,
        [
            (ta, lambda g, m=mask, s=x.shape: unbroadcast(g * m, s)),
            (tb, lambda g, m=mask, s=y.shape: unbroadcast(g * ~m, s)),
        ],
        "maximum",
        fwd=fwd,
        meta=((x, y), {"mask": mask}),
    )


@primitive("minimum")
def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise minimum; ties route the gradient to the first input."""
    ta, tb = tensor(a), tensor(b)
    x, y = ta.data, tb.data
    out = np.minimum(x, y)
    mask = x <= y

    def fwd(o: np.ndarray, x=x, y=y, m=mask) -> None:
        np.minimum(x, y, out=o)
        np.less_equal(x, y, out=m)

    return make_node(
        out,
        [
            (ta, lambda g, m=mask, s=x.shape: unbroadcast(g * m, s)),
            (tb, lambda g, m=mask, s=y.shape: unbroadcast(g * ~m, s)),
        ],
        "minimum",
        fwd=fwd,
        meta=((x, y), {"mask": mask}),
    )


@primitive("where")
def where(cond: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable ``np.where`` (the condition itself is constant)."""
    c = asdata(cond).astype(bool)
    ta, tb = tensor(a), tensor(b)
    x, y = ta.data, tb.data
    out = np.where(c, x, y)
    return make_node(
        out,
        [
            (ta, lambda g, m=c, s=x.shape: unbroadcast(np.where(m, g, 0.0), s)),
            (tb, lambda g, m=c, s=y.shape: unbroadcast(np.where(m, 0.0, g), s)),
        ],
        "where",
        fwd=lambda o, m=c, x=x, y=y: np.copyto(o, np.where(m, x, y)),
        meta=((x, y), {"mask": c}),
    )


@primitive("clip")
def clip(a: ArrayLike, lo: float, hi: float) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is zero outside the interval."""
    ta = tensor(a)
    x = ta.data
    out = np.clip(x, lo, hi)
    mask = (x >= lo) & (x <= hi)

    def fwd(o: np.ndarray, x=x, m=mask) -> None:
        np.clip(x, lo, hi, out=o)
        np.greater_equal(x, lo, out=m)
        np.logical_and(m, x <= hi, out=m)

    return make_node(
        out,
        [(ta, lambda g, m=mask: g * m)],
        "clip",
        fwd=fwd,
        meta=((x,), {"lo": lo, "hi": hi, "mask": mask}),
    )


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
@primitive("sum")
def sum_(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Sum reduction."""
    ta = tensor(a)
    x = ta.data
    out = x.sum(axis=axis, keepdims=keepdims)

    view_cache = [None, None]

    def vjp(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return _broadcast_view(g, x.shape, view_cache)
        g2 = g
        if not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(a % x.ndim for a in axes):
                g2 = np.expand_dims(g2, ax)
        return _broadcast_view(g2, x.shape)

    return make_node(
        out,
        [(ta, vjp)],
        "sum",
        # Bound ndarray method: skips np.sum's Python dispatch layer.
        fwd=lambda o, x=x: x.sum(axis=axis, keepdims=keepdims, out=o),
        meta=((x,), {"axis": axis, "keepdims": keepdims}),
    )


@primitive("mean")
def mean(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Mean reduction."""
    ta = tensor(a)
    x = ta.data
    out = x.mean(axis=axis, keepdims=keepdims)
    denom = x.size if axis is None else np.prod(
        [x.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)]
    )

    def vjp(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return _broadcast_view(g / denom, x.shape)
        g2 = g
        if not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(a % x.ndim for a in axes):
                g2 = np.expand_dims(g2, ax)
        return _broadcast_view(g2 / denom, x.shape)

    return make_node(
        out,
        [(ta, vjp)],
        "mean",
        fwd=lambda o, x=x: x.mean(axis=axis, keepdims=keepdims, out=o),
        meta=((x,), {"axis": axis, "keepdims": keepdims, "denom": float(denom)}),
    )


@primitive("amax")
def amax(a: ArrayLike, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Max reduction.

    At ties the cotangent is routed to *every* maximal element (a valid
    subgradient, and the symmetric choice — no dependence on memory
    order).  The tie mask is recomputed inside the VJP from the parent
    data and the node's output buffer, so compiled replay stays sound
    without a refreshable auxiliary.
    """
    ta = tensor(a)
    x = ta.data
    out = np.asarray(x.max(axis=axis, keepdims=keepdims))

    def _expand(g: np.ndarray) -> np.ndarray:
        if axis is None or keepdims:
            return g
        g2 = g
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        for ax in sorted(a % x.ndim for a in axes):
            g2 = np.expand_dims(g2, ax)
        return g2

    def vjp(g: np.ndarray) -> np.ndarray:
        if axis is None:
            mask = x == out
            return np.where(mask, np.asarray(g), 0.0)
        mask = x == _expand(out)
        return np.where(mask, _expand(g), 0.0)

    def fwd(o: np.ndarray, x=x) -> None:
        if o.ndim == 0:
            np.copyto(o, x.max(axis=axis, keepdims=keepdims))
        else:
            x.max(axis=axis, keepdims=keepdims, out=o)

    return make_node(out, [(ta, vjp)], "amax", fwd=fwd)


# ----------------------------------------------------------------------
# Linear algebra (dense) — the workhorses of DP through the RBF solver
# ----------------------------------------------------------------------
@primitive("matmul")
def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product with the standard VJPs.

    Supports the 1-D/2-D combinations used by the solver (matrix@vector,
    matrix@matrix, vector@matrix, vector@vector) plus *stacked* operands
    on either side — e.g. ``(s, m, k) @ (k, n)`` from the batched PINN
    derivative propagation, or the fully batched combinations emitted by
    the :mod:`~repro.autodiff.batching` rules.  Cotangents into operands
    that broadcast over stacked axes are reduced with ``unbroadcast``
    (a no-op returning the same array when shapes already match, so the
    historical 1-D/2-D paths are bit-identical to before).
    """
    ta, tb = tensor(a), tensor(b)
    A, B = ta.data, tb.data
    out = A @ B

    def vjp_a(g: np.ndarray) -> np.ndarray:
        if A.ndim == 1 and B.ndim == 1:  # inner product
            return g * B
        if A.ndim == 1:
            if B.ndim == 2:  # (k,) @ (k,n) -> (n,)
                return B @ g
            # (k,) @ (..., k, n): contract g against B's last axis.
            r = np.matmul(B, g[..., :, None])[..., 0]
            return unbroadcast(r, A.shape)
        if B.ndim == 1:
            if A.ndim == 2:  # (m,k) @ (k,) -> (m,)
                return np.outer(g, B)
            return unbroadcast(g[..., :, None] * B, A.shape)
        return unbroadcast(g @ np.swapaxes(B, -1, -2), A.shape)

    def vjp_b(g: np.ndarray) -> np.ndarray:
        if A.ndim == 1 and B.ndim == 1:
            return g * A
        if A.ndim == 1:
            if B.ndim == 2:
                return np.outer(A, g)
            return unbroadcast(A[:, None] * g[..., None, :], B.shape)
        if B.ndim == 1:
            if A.ndim == 2:
                return A.T @ g
            r = np.matmul(np.swapaxes(A, -1, -2), g[..., :, None])[..., 0]
            return unbroadcast(r, B.shape)
        if A.ndim == 2 and B.ndim == 2:
            return A.T @ g
        return unbroadcast(np.swapaxes(A, -1, -2) @ g, B.shape)

    if np.ndim(out) == 0:  # 1-D @ 1-D: scalar result, no ufunc out=
        fwd = lambda o, A=A, B=B: np.copyto(o, A @ B)
    else:
        fwd = lambda o, A=A, B=B: np.matmul(A, B, out=o)
    return make_node(
        out, [(ta, vjp_a), (tb, vjp_b)], "matmul", fwd=fwd, meta=((A, B), None)
    )


@composite
def dot(a: ArrayLike, b: ArrayLike) -> Tensor:
    """1-D inner product ``sum(a * b)``."""
    return sum_(mul(a, b))


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
@primitive("reshape")
def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Differentiable reshape."""
    ta = tensor(a)
    x = ta.data
    out = x.reshape(shape)
    fwd = (
        VIEW_FWD
        if np.may_share_memory(out, x)
        else (lambda o, x=x: np.copyto(o, x.reshape(shape)))
    )
    return make_node(
        out,
        [(ta, lambda g, s=x.shape: g.reshape(s))],
        "reshape",
        fwd=fwd,
        meta=((x,), {"shape": tuple(out.shape)}),
    )


@primitive("transpose")
def transpose(a: ArrayLike, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    """Differentiable transpose / axis permutation."""
    ta = tensor(a)
    out = np.transpose(ta.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))
    # np.transpose always returns a view: nothing to recompute on replay.
    return make_node(
        out,
        [(ta, lambda g: np.transpose(g, inv))],
        "transpose",
        fwd=VIEW_FWD,
        meta=((ta.data,), {"axes": axes, "inv": inv}),
    )


def _is_unique_index(index) -> bool:
    """True when ``index`` can never address the same element twice.

    Basic indexing (ints, slices, Ellipsis, None) and boolean masks select
    each element at most once, so the VJP may scatter with direct
    assignment; integer fancy indexing can repeat positions and needs the
    accumulating ``np.add.at``.
    """
    if isinstance(index, tuple):
        return all(_is_unique_index(i) for i in index)
    if isinstance(index, (int, np.integer, slice)) or index is None or index is Ellipsis:
        return True
    if isinstance(index, np.ndarray) and index.dtype == bool:
        return True
    return False


@primitive("getitem")
def getitem(a: ArrayLike, index) -> Tensor:
    """Differentiable indexing/slicing.

    Basic indices keep a *view* of the parent data (no forward copy) and
    scatter the cotangent with direct assignment; integer fancy indices
    copy forward and scatter with ``np.add.at`` (duplicates accumulate).
    """
    ta = tensor(a)
    x = ta.data
    out = x[index]
    unique = _is_unique_index(index)

    def vjp(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(x)
        if unique:
            full[index] = g
        else:
            np.add.at(full, index, g)
        return full

    if isinstance(out, np.ndarray) and np.may_share_memory(out, x):
        fwd = VIEW_FWD
    else:
        fwd = lambda o, x=x: np.copyto(o, x[index])
    return make_node(
        out,
        [(ta, vjp)],
        "getitem",
        fwd=fwd,
        meta=((x,), {"index": index, "unique": unique}),
    )


@primitive("concatenate")
def concatenate(parts: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    ts = [tensor(p) for p in parts]
    arrays = [t.data for t in ts]
    out = np.concatenate(arrays, axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    parents = []
    spans = []
    for i, t in enumerate(ts):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        spans.append((lo, hi))

        def vjp(g: np.ndarray, lo=lo, hi=hi) -> np.ndarray:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(lo, hi)
            return g[tuple(slicer)]

        parents.append((t, vjp))

    def fwd(o: np.ndarray, arrays=arrays, spans=spans) -> None:
        slicer = [slice(None)] * o.ndim
        for arr, (lo, hi) in zip(arrays, spans):
            slicer[axis] = slice(lo, hi)
            o[tuple(slicer)] = arr

    return make_node(out, parents, "concatenate", fwd=fwd)


@primitive("stack")
def stack(parts: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new axis."""
    ts = [tensor(p) for p in parts]
    arrays = [t.data for t in ts]
    out = np.stack(arrays, axis=axis)

    parents = []
    for i, t in enumerate(ts):

        def vjp(g: np.ndarray, i=i) -> np.ndarray:
            return np.take(g, i, axis=axis)

        parents.append((t, vjp))

    def fwd(o: np.ndarray, arrays=arrays) -> None:
        mv = np.moveaxis(o, axis, 0)
        for i, arr in enumerate(arrays):
            mv[i] = arr

    return make_node(out, parents, "stack", fwd=fwd)
