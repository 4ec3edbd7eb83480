"""Differentiable primitive operations.

Each primitive computes its forward value with plain NumPy (vectorised, no
Python loops over elements — see the HPC guides) and records one VJP closure
per differentiable input.  The VJPs are standard; where broadcasting is
possible the cotangent is reduced with :func:`~repro.autodiff.tensor.unbroadcast`.

The elementwise primitives (``add`` … ``clip``) are not written out here:
each is one entry of :mod:`repro.autodiff.elementwise`, from which
:func:`_build_elementwise` generates the public function at import time.
Matmul, reductions, views and ``concatenate``/``stack`` are written by
hand below.

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
calls it for every op it cannot lower.  For a tabled elementwise op both
kinds of closure are built from its entry: ``fwd`` runs the entry's forward
and ``aux`` step chains in place, and each VJP closure evaluates the
entry's VJP for its operand over the captured operand arrays (and the
output buffer, when the VJP reads ``out``) — the same ufuncs, in the same
order, as the kernel the compiled tier emits.  Three rules keep replay
sound:

1. ``fwd`` writes only into the supplied buffer (plus any value-dependent
   auxiliaries — an entry's ``aux`` buffers, such as the ``maximum`` tie
   mask — which it refreshes in place so the captured VJP closures stay
   current);
2. an op whose output *aliases* a parent buffer (reshape/transpose views,
   basic-index views) records the :data:`~repro.autodiff.tensor.VIEW_FWD`
   sentinel instead — the view updates for free when the parent does;
3. VJPs never capture value-dependent temporaries that ``fwd`` does not
   refresh (e.g. ``power``'s exponent VJP recomputes ``log(a)`` from parent
   data).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff.batching import composite, primitive
from repro.autodiff.elementwise import (
    ELEMENTWISE,
    Elementwise,
    in_place,
    nest,
    symbols,
)
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
# Elementwise primitives: built from their table entries
# ----------------------------------------------------------------------
def _build_elementwise(e: Elementwise) -> Callable:
    """Generate ``ops.<name>`` for one table entry.

    The source is what one would write by hand — forward, one VJP lambda
    per operand, one replay closure — so a call costs what a hand-written
    primitive costs.  Operands of a binary op may broadcast, so their
    VJPs reduce with :func:`unbroadcast`.
    """
    xs = e.operands
    args = [p for p in e.params if p in ("a", "b")]
    tens = ["t" + p for p in args]
    sig = ", ".join(
        f"{p}: {'float' if p in e.statics else 'ArrayLike'!r}" for p in e.params
    )
    src = [f"def {e.py_name}({sig}) -> 'Tensor':"]
    if "cond" in e.params:
        src.append("    mask = asdata(cond).astype(bool)")
    src.append(f"    {', '.join(tens)} = {', '.join(f'tensor({p})' for p in args)}")
    src.append(f"    {', '.join(xs)} = {', '.join(t + '.data' for t in tens)}")

    fwd, rest = (e.fwd, ()) if isinstance(e.fwd, str) else (nest(e.fwd[:1]), e.fwd[1:])
    if e.reads_out or rest:  # VJPs and replay must hold the node's own buffer
        fwd = f"np.asarray({fwd})"
    src.append(f"    out = {fwd}")
    src += ["    " + line for line in in_place(rest, "out")]
    for name, chain in e.aux:
        src.append(f"    {name} = np.asarray({nest(chain)})")

    aux_names = [name for name, _ in e.aux]
    held = set(symbols(e.fwd)).union(*(symbols(c) for _, c in e.aux), aux_names)
    src.append(f"    def fwd(o, {', '.join(f'{s}={s}' for s in sorted(held))}):")
    if isinstance(e.fwd, str):
        src.append(f"        np.copyto(o, {e.fwd})")
    else:
        src += ["        " + line for line in in_place(e.fwd, "o")]
    for name, chain in e.aux:
        src += ["        " + line for line in in_place(chain, name)]

    parents = []
    for t, x, rule in zip(tens, xs, e.vjp):
        body = rule if isinstance(rule, str) else nest(rule)
        lam = ["g", *(f"{s}={s}" for s in sorted(symbols(rule) - {"g"}))]
        if len(xs) == 2:
            lam.append(f"s={x}.shape")
            body = f"unbroadcast({body}, s)"
        parents.append(f"({t}, lambda {', '.join(lam)}: {body})")
    params = [*e.statics, *(["mask"] if "cond" in e.params else []), *aux_names]
    meta = "{" + ", ".join(f"{p!r}: {p}" for p in params) + "}" if params else "None"
    src.append(
        f"    return make_node(out, [{', '.join(parents)}], {e.name!r}, fwd=fwd,"
        f" meta=(({', '.join(xs)},), {meta}))"
    )

    ns = {"np": np, "tensor": tensor, "asdata": asdata, "make_node": make_node,
          "unbroadcast": unbroadcast}
    code = compile(
        "\n".join(src), f"<repro.autodiff.ops:{e.name}>", "exec", dont_inherit=True
    )
    exec(code, ns)
    fn = ns[e.py_name]
    fn.__doc__, fn.__module__, fn.__qualname__ = e.doc, __name__, e.py_name
    return primitive(e.name)(fn)


for _e in ELEMENTWISE.values():
    globals()[_e.py_name] = _build_elementwise(_e)
del _e


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
