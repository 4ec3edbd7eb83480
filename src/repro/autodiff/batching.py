"""``vbatch`` — a vmap-style batch transform over the autodiff tape.

DESIGN §13.  The ω line search, seed ensembles, and bench sweeps all
evaluate the *same* tensor program at N inputs; running N separate tapes
pays the Python dispatch cost N times and forgoes stacked BLAS calls.
``vbatch(fn, in_axes, out_axes)`` re-executes ``fn`` once with a
batch-dimension-carrying tracer (:class:`BatchTracer`) flowing through
the existing primitives, lowering the N evaluations to a single stacked
NumPy program whose tape is an ordinary tape — gradients, ``no_grad``
and the compiled tier all work unchanged.

Architecture
------------
Every primitive in :mod:`~repro.autodiff.ops`,
:mod:`~repro.autodiff.linalg` and :mod:`~repro.autodiff.sparse` is
decorated with :func:`primitive`, which registers it by name and wraps
it with a dispatcher.  Outside a ``vbatch`` trace the wrapper costs one
attribute read; inside, any :class:`BatchTracer` argument routes the
call to the primitive's *batching rule*.  Rules rewrite the call into
stacked primitive calls on the tracer's underlying
:class:`~repro.autodiff.tensor.Tensor` (batch axis always at position
0), so the result is again on the tape with correct VJPs for free:

- **elementwise** ops broadcast after aligning item ranks (singleton
  axes inserted right after the batch axis);
- **reductions** shift the reduced axes by one (``axis=None`` becomes
  "all item axes", keeping the batch axis);
- **views** (reshape/transpose/getitem) prepend the batch axis to the
  shape, permutation, or index;
- **matmul** maps each batched/unbatched × item-rank combination to a
  single stacked ``np.matmul`` whose per-slice GEMM shapes match the
  per-item program exactly (1-D operands become row/column matrices,
  extra leading axes are broadcast, never flattened), so the forward
  *and* the reverse-pass GEMMs are bitwise identical per item;
- **solve-family** primitives (``solve``/``row_scaled_solve``/
  ``lu_solve``/``lstsq``/
  ``sparse_solve``/``sparse_lu_solve``/``sparse_matvec``/
  ``sparse_pattern_solve``/``krylov_solve``/``krylov_pattern_solve``)
  transpose the batched right-hand side into
  an ``(n, N)`` column block and perform ONE factorisation + ONE
  multi-RHS triangular solve (``getrs``/``spsolve``) — forward and
  adjoint: the transposed solve in the implicit VJP receives the same
  column block and batches identically;
- anything a rule cannot express (a batched system matrix, exotic
  ``matmul`` ranks) *punts* to the :func:`_fallback_loop` rule, which
  loops ``getitem → primitive → stack`` — slower, still differentiable,
  never an error.  Primitives may also opt out of rule coverage wholesale
  with ``primitive(name, fallback=True)``.

The conformance contract (``tests/autodiff/test_batching.py``) pins for
every registered primitive: batched == stacked-loop forward, batched ==
looped VJPs, eager == compiled, and a registry-completeness check
that fails when a primitive lands without a rule or a declared fallback.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.autodiff.elementwise import ELEMENTWISE
from repro.autodiff.tensor import Tensor, asdata, no_grad, tensor

__all__ = [
    "BatchTracer",
    "BatchedMask",
    "primitive",
    "composite",
    "register_rule",
    "registered_primitives",
    "declared_fallbacks",
    "has_batch_rule",
    "vbatch",
    "batch_size",
    "is_batching",
]


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
_PRIMITIVES: Dict[str, Callable] = {}  # name -> raw (unwrapped) primitive
_BATCH_RULES: Dict[str, Callable] = {}  # name -> batching rule
_FALLBACK_DECLARED: Set[str] = set()  # names opting into the loop rule


class _BatchState:
    """Per-process trace state (one ``vbatch`` trace active at a time)."""

    __slots__ = ("active", "size")

    def __init__(self) -> None:
        self.active = False
        self.size = 0


_STATE = _BatchState()


def is_batching() -> bool:
    """True while a ``vbatch`` trace is executing."""
    return _STATE.active


def batch_size() -> int:
    """The active trace's batch size N (0 outside a trace)."""
    return _STATE.size


def registered_primitives() -> Dict[str, Callable]:
    """Snapshot of the primitive registry (name -> raw implementation)."""
    return dict(_PRIMITIVES)


def declared_fallbacks() -> frozenset:
    """Primitives that declared the loop fallback instead of a rule."""
    return frozenset(_FALLBACK_DECLARED)


def has_batch_rule(name: str) -> bool:
    """True when ``name`` has a registered (non-fallback) batching rule."""
    return name in _BATCH_RULES


class _Punt(Exception):
    """Raised by a rule to hand an unsupported combination to the loop."""


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class BatchTracer:
    """A batch of N values flowing through the primitives as one Tensor.

    Wraps a :class:`~repro.autodiff.tensor.Tensor` whose axis 0 is the
    batch axis; ``shape``/``ndim`` report the *item* view so traced code
    written for a single example keeps working.  Operator overloads call
    the wrapped primitives, which dispatch back into the rule table.
    """

    __slots__ = ("t",)

    # NumPy must defer ``ndarray <op> tracer`` to the reflected operators.
    __array_ufunc__ = None
    __array_priority__ = 2000

    def __init__(self, t: Tensor) -> None:
        if not isinstance(t, Tensor):
            t = tensor(t)
        if t.ndim < 1:
            raise ValueError("BatchTracer needs a leading batch axis")
        self.t = t

    # Item-view introspection ------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of one item (batch axis hidden)."""
        return self.t.shape[1:]

    @property
    def ndim(self) -> int:
        """Rank of one item."""
        return self.t.ndim - 1

    @property
    def size(self) -> int:
        """Elements per item."""
        return int(np.prod(self.t.shape[1:], dtype=np.int64))

    @property
    def batch_size(self) -> int:
        """Number of items in the batch."""
        return self.t.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.t.dtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchTracer(n={self.t.shape[0]}, item_shape={self.shape})"

    def __array__(self, *a, **k):
        raise TypeError(
            "BatchTracer cannot be coerced to an ndarray; it only exists "
            "inside a vbatch trace — keep computations in primitive ops"
        )

    def __len__(self) -> int:
        if self.t.ndim < 2:
            raise TypeError("len() of a scalar batch item")
        return self.t.shape[1]

    def __hash__(self) -> int:
        return id(self)

    # Operators (route through the wrapped primitives) -----------------
    def __add__(self, o):
        return _op("add")(self, o)

    def __radd__(self, o):
        return _op("add")(o, self)

    def __sub__(self, o):
        return _op("sub")(self, o)

    def __rsub__(self, o):
        return _op("sub")(o, self)

    def __mul__(self, o):
        return _op("mul")(self, o)

    def __rmul__(self, o):
        return _op("mul")(o, self)

    def __truediv__(self, o):
        return _op("div")(self, o)

    def __rtruediv__(self, o):
        return _op("div")(o, self)

    def __pow__(self, o):
        return _op("power")(self, o)

    def __rpow__(self, o):
        return _op("power")(o, self)

    def __neg__(self):
        return _op("neg")(self)

    def __matmul__(self, o):
        return _op("matmul")(self, o)

    def __rmatmul__(self, o):
        return _op("matmul")(o, self)

    def __getitem__(self, index):
        return _op("getitem")(self, index)

    @property
    def T(self):
        return _op("transpose")(self)

    def sum(self, axis=None, keepdims: bool = False):
        return _op("sum")(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return _op("mean")(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        return _op("amax")(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _op("reshape")(self, shape)

    def ravel(self):
        return self.reshape((-1,))

    # Comparisons yield a batch-tagged boolean mask so the ``where``
    # rule can tell a batched condition from an item-shaped constant.
    def __lt__(self, o):
        return BatchedMask(self.t.data < _cmp_data(o, self))

    def __le__(self, o):
        return BatchedMask(self.t.data <= _cmp_data(o, self))

    def __gt__(self, o):
        return BatchedMask(self.t.data > _cmp_data(o, self))

    def __ge__(self, o):
        return BatchedMask(self.t.data >= _cmp_data(o, self))


class BatchedMask:
    """A boolean array with a leading batch axis (comparison result)."""

    __slots__ = ("data",)

    __array_ufunc__ = None
    __array_priority__ = 2000

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=bool)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape[1:]

    def __invert__(self) -> "BatchedMask":
        return BatchedMask(~self.data)

    def __and__(self, o) -> "BatchedMask":
        return BatchedMask(self.data & (o.data if isinstance(o, BatchedMask) else o))

    def __or__(self, o) -> "BatchedMask":
        return BatchedMask(self.data | (o.data if isinstance(o, BatchedMask) else o))


def _cmp_data(o: Any, tracer: BatchTracer) -> np.ndarray:
    """Comparison operand aligned against a tracer's stacked data."""
    if isinstance(o, BatchTracer):
        a, b = _align_item_ranks([tracer, o])
        return b if a is not None else o.t.data  # pragma: no cover
    return asdata(o)


def _op(name: str) -> Callable:
    """The *wrapped* primitive (dispatches on tracers)."""
    return _WRAPPERS[name]


_WRAPPERS: Dict[str, Callable] = {}


# ----------------------------------------------------------------------
# Decorators
# ----------------------------------------------------------------------
def primitive(name: str, fallback: bool = False) -> Callable:
    """Register ``fn`` as a batchable primitive and wrap its dispatch.

    ``fallback=True`` declares that the primitive has no vectorised rule
    and should always take the ``getitem → op → stack`` loop under
    ``vbatch`` — a graceful-degradation opt-out that the conformance
    suite's completeness check accepts in lieu of a rule.
    """

    def deco(fn: Callable) -> Callable:
        _PRIMITIVES[name] = fn
        if fallback:
            _FALLBACK_DECLARED.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _STATE.active and (
                _contains_tracer(args) or _contains_tracer(tuple(kwargs.values()))
            ):
                return _dispatch(name, fn, args, kwargs)
            return fn(*args, **kwargs)

        wrapper._primitive_name = name
        wrapper._raw = fn
        _WRAPPERS[name] = wrapper
        return wrapper

    return deco


def composite(fn: Callable) -> Callable:
    """Mark a function as a *composite* of primitives (no rule needed).

    Composites (``ops.dot``, ``linalg.norm``) batch automatically because
    every primitive they call dispatches; the marker lets the conformance
    suite's completeness scan tell them apart from unregistered primitives.
    """
    fn._composite = True
    return fn


def register_rule(name: str) -> Callable:
    """Decorator registering a batching rule for primitive ``name``."""

    def deco(rule: Callable) -> Callable:
        _BATCH_RULES[name] = rule
        return rule

    return deco


def _contains_tracer(seq: Tuple) -> bool:
    for x in seq:
        if isinstance(x, (BatchTracer, BatchedMask)):
            return True
        if isinstance(x, (list, tuple)):
            for y in x:
                if isinstance(y, (BatchTracer, BatchedMask)):
                    return True
    return False


def _dispatch(name: str, raw: Callable, args: Tuple, kwargs: Dict) -> Any:
    rule = _BATCH_RULES.get(name)
    if rule is not None and name not in _FALLBACK_DECLARED:
        try:
            return rule(raw, *args, **kwargs)
        except _Punt:
            pass
    return _fallback_loop(name, raw, args, kwargs)


# ----------------------------------------------------------------------
# Shared rule helpers
# ----------------------------------------------------------------------
def _raw(name: str) -> Callable:
    return _PRIMITIVES[name]


def _tile(x: Any, n: int) -> Tensor:
    """Broadcast an unbatched value to a ``(n, *shape)`` stacked Tensor.

    Implemented as a differentiable multiply by ones so the cotangent of
    the stacked result sums over the batch axis — exactly the gradient a
    loop over N identical uses would accumulate.
    """
    t = x if isinstance(x, Tensor) else tensor(x)
    ones = np.ones((n,) + (1,) * t.ndim)
    return _raw("mul")(t, ones)


def _align_item_ranks(parts: Sequence[Any]) -> List[Any]:
    """Insert singleton axes after the batch axis so item ranks match.

    NumPy broadcasting aligns *trailing* axes; with the batch axis pinned
    at position 0, a batched ``(N, 3)`` meeting a batched ``(N, 2, 3)``
    must first become ``(N, 1, 3)``.  Unbatched operands broadcast
    against the trailing item axes untouched.
    """
    item_ndim = 0
    for p in parts:
        if isinstance(p, BatchTracer):
            item_ndim = max(item_ndim, p.t.ndim - 1)
        elif isinstance(p, BatchedMask):
            item_ndim = max(item_ndim, p.data.ndim - 1)
        else:
            item_ndim = max(item_ndim, np.ndim(asdata(p)))
    out: List[Any] = []
    for p in parts:
        if isinstance(p, BatchTracer):
            t = p.t
            pad = item_ndim - (t.ndim - 1)
            if pad > 0:
                t = _raw("reshape")(t, (t.shape[0],) + (1,) * pad + t.shape[1:])
            out.append(t)
        elif isinstance(p, BatchedMask):
            d = p.data
            pad = item_ndim - (d.ndim - 1)
            if pad > 0:
                d = d.reshape((d.shape[0],) + (1,) * pad + d.shape[1:])
            out.append(d)
        else:
            out.append(p)
    return out


def _norm_axes(axis, item_ndim: int) -> Tuple[int, ...]:
    axes = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
    return tuple(sorted(int(a) % item_ndim + 1 for a in axes))


# ----------------------------------------------------------------------
# Rules: elementwise
# ----------------------------------------------------------------------
def _unary_rule(raw: Callable, a: BatchTracer, *rest, **kwargs) -> BatchTracer:
    return BatchTracer(raw(a.t, *rest, **kwargs))


def _binary_rule(raw: Callable, a, b, **kwargs) -> BatchTracer:
    ia, ib = _align_item_ranks([a, b])
    return BatchTracer(raw(ia, ib, **kwargs))


def _where_rule(raw, cond, a, b):
    c, x, y = _align_item_ranks([cond, a, b])
    if isinstance(cond, BatchTracer):  # a traced condition is just data
        c = c.data
    return BatchTracer(raw(c, x, y))


_ELEMENTWISE_RULES = {"unary": _unary_rule, "binary": _binary_rule, "where": _where_rule}
for _e in ELEMENTWISE.values():
    _BATCH_RULES[_e.name] = _ELEMENTWISE_RULES[_e.batch]


# ----------------------------------------------------------------------
# Rules: reductions
# ----------------------------------------------------------------------
def _reduction_rule(raw, a: BatchTracer, axis=None, keepdims: bool = False):
    t = a.t
    item_ndim = t.ndim - 1
    if item_ndim == 0:
        # Reducing a scalar item is the identity.
        return BatchTracer(t)
    if axis is None:
        new_axis: Union[int, Tuple[int, ...]] = tuple(range(1, t.ndim))
    else:
        new_axis = _norm_axes(axis, item_ndim)
    return BatchTracer(raw(t, axis=new_axis, keepdims=keepdims))


for _n in ("sum", "mean", "amax"):
    _BATCH_RULES[_n] = _reduction_rule


# ----------------------------------------------------------------------
# Rules: views
# ----------------------------------------------------------------------
@register_rule("reshape")
def _reshape_rule(raw, a: BatchTracer, shape):
    t = a.t
    shape = tuple(int(s) for s in shape)
    if -1 in shape:
        # Resolve -1 against the ITEM size before prepending the batch
        # axis: NumPy cannot infer it once a zero-length batch axis
        # makes the total size 0.
        item_size = int(np.prod(t.shape[1:], dtype=np.int64))
        known = int(-np.prod(shape, dtype=np.int64))
        shape = tuple(item_size // known if s == -1 else s for s in shape)
    return BatchTracer(raw(t, (t.shape[0],) + shape))


@register_rule("transpose")
def _transpose_rule(raw, a: BatchTracer, axes=None):
    t = a.t
    item_ndim = t.ndim - 1
    if axes is None:
        perm = (0,) + tuple(range(t.ndim - 1, 0, -1))
    else:
        perm = (0,) + tuple(int(ax) % item_ndim + 1 for ax in axes)
    return BatchTracer(raw(t, perm))


@register_rule("getitem")
def _getitem_rule(raw, a: BatchTracer, index):
    if _contains_tracer((index,)):
        raise _Punt  # batched index arrays: loop
    new_index = (slice(None),) + (index if isinstance(index, tuple) else (index,))
    return BatchTracer(raw(a.t, new_index))


# ----------------------------------------------------------------------
# Rules: concatenate / stack
# ----------------------------------------------------------------------
def _stacked_parts(parts: Sequence[Any]) -> Tuple[List[Any], int]:
    n = _STATE.size
    inner = [p.t if isinstance(p, BatchTracer) else _tile(p, n) for p in parts]
    item_ndim = inner[0].ndim - 1
    return inner, item_ndim


@register_rule("concatenate")
def _concatenate_rule(raw, parts, axis: int = 0):
    inner, item_ndim = _stacked_parts(parts)
    return BatchTracer(raw(inner, axis=int(axis) % item_ndim + 1))


@register_rule("stack")
def _stack_rule(raw, parts, axis: int = 0):
    inner, item_ndim = _stacked_parts(parts)
    return BatchTracer(raw(inner, axis=int(axis) % (item_ndim + 1) + 1))


# ----------------------------------------------------------------------
# Rule: matmul
# ----------------------------------------------------------------------
@register_rule("matmul")
def _matmul_rule(raw, a, b):
    """Stacked matrix products, case by (batchedness, item rank).

    Arrangements are chosen for bitwise parity with the per-item program
    wherever NumPy/BLAS guarantees it (verified empirically, pinned by
    the conformance suite): a 3-D stacked GEMM equals its 2-D slices, and
    flattening constant stacked operands to 2-D (``(d·b, i)``) keeps one
    GEMM whose reverse pass matches the serial ``tensordot`` GEMM.
    """
    R, n = _raw("reshape"), _STATE.size
    ab, bb = isinstance(a, BatchTracer), isinstance(b, BatchTracer)

    if ab and bb:
        ta, tb = a.t, b.t
        ia, ib = ta.ndim - 1, tb.ndim - 1
        if ia == 0 or ib == 0:
            raise _Punt
        if ia == 1 and ib == 1:  # per-item inner product
            k = ta.shape[1]
            out = raw(R(ta, (n, 1, k)), R(tb, (n, k, 1)))
            return BatchTracer(R(out, (n,)))
        if ia == 1 and ib == 2:
            out = raw(R(ta, (n, 1, ta.shape[1])), tb)
            return BatchTracer(R(out, (n, tb.shape[2])))
        if ia == 2 and ib == 1:
            out = raw(ta, R(tb, (n, tb.shape[1], 1)))
            return BatchTracer(R(out, (n, ta.shape[1])))
        if ia == 2 and ib == 2:
            return BatchTracer(raw(ta, tb))
        if ia > 2 and ib == 2:
            # (N, *lead, m, k) @ (N, 1…, k, p): broadcast B over the
            # item's extra leading axes so every slice runs the same
            # (m,k)@(k,p) GEMM the per-item program does — bitwise.
            # (Flattening the lead axes into GEMM rows changes the row
            # count and can switch BLAS kernels, e.g. when p == 1.)
            tb2 = R(tb, (n,) + (1,) * (ia - 2) + (tb.shape[1], tb.shape[2]))
            return BatchTracer(raw(ta, tb2))
        if ia > 2 and ib == 1:
            # (N, *lead, m, k) @ (N, 1…, k, 1): broadcasting the column
            # over the lead axes keeps each slice the same (m,k)@(k,1)
            # product as the serial broadcast GEMV — bitwise; flattening
            # the lead axes into GEMM rows is not.
            lead = ta.shape[1:-1]
            tb2 = R(tb, (n,) + (1,) * (ia - 2) + (tb.shape[1], 1))
            out = raw(ta, tb2)
            return BatchTracer(R(out, (n,) + lead))
        raise _Punt

    if ab:  # batched A, constant B
        ta = a.t
        ia = ta.ndim - 1
        cb = np.ndim(asdata(b))
        if ia == 0:
            raise _Punt
        if ia == 1:
            k = ta.shape[1]
            if cb == 1:
                # Per-item dot: (N,1,k) @ (N,k,1).  A flat (N,k)@(k,)
                # GEMV reorders the accumulation and is NOT bitwise
                # against the per-item dot (verified empirically); the
                # row-matrix arrangement is.
                b2 = R(_expand_const(b, n), (n, k, 1))
                out = raw(R(ta, (n, 1, k)), b2)
                return BatchTracer(R(out, (n,)))
            if cb == 2:  # (N,1,k) @ (k,p): bitwise vs per-item vecmat
                out = raw(R(ta, (n, 1, k)), b)
                return BatchTracer(R(out, (n, np.shape(asdata(b))[1])))
            raise _Punt
        if cb in (1, 2):
            # (N, *lead, m, k) @ (k[, p]) broadcasts directly; NumPy runs
            # the same per-slice GEMM/GEMV the loop would.
            return BatchTracer(raw(ta, b))
        raise _Punt

    # constant A, batched B
    tb = b.t
    ib = tb.ndim - 1
    ca = np.ndim(asdata(a))
    if ib == 0:
        raise _Punt
    if ib == 1:
        k = tb.shape[1]
        if ca == 1:  # per-item dot: row/column arrangement (see above)
            a2 = R(_expand_const(a, n), (n, 1, k))
            out = raw(a2, R(tb, (n, k, 1)))
            return BatchTracer(R(out, (n,)))
        if ca == 2:
            lead = np.shape(asdata(a))[:-1]
            out = raw(a, R(tb, (n, k, 1)))  # (N, m, 1)
            return BatchTracer(R(out, (n,) + lead))
        if ca > 2:
            # (*lead, m, k) @ (N, 1…, k, 1): broadcast the column block
            # over the constant's lead axes (bitwise; see batched case).
            lead = np.shape(asdata(a))[:-1]
            tb2 = R(tb, (n,) + (1,) * (ca - 2) + (k, 1))
            out = raw(a, tb2)
            return BatchTracer(R(out, (n,) + lead))
        raise _Punt
    if ib == 2:
        if ca == 1:  # (k,) @ (N,k,p) -> (N,p)
            return BatchTracer(raw(a, tb))
        if ca == 2:  # (m,k) @ (N,k,p) -> (N,m,p)
            return BatchTracer(raw(a, tb))
        if ca > 2:
            # Constant stacked seeds: (d, b, i) @ (N, 1, i, o).  As in
            # the batched≥3-D case, broadcasting B over the constant's
            # extra leading axes keeps every slice the exact per-item
            # (b,i)@(i,o) GEMM — bitwise; flattening the lead axes into
            # GEMM rows is not (kernel switch when o == 1).
            tb2 = R(tb, (n,) + (1,) * (ca - 2) + (tb.shape[1], tb.shape[2]))
            return BatchTracer(raw(a, tb2))
        raise _Punt
    raise _Punt


def _expand_const(v: Any, n: int):
    """Stack an unbatched operand to ``(n, *shape)`` for a stacked call.

    Differentiable (via :func:`_tile`'s multiply-by-ones, whose forward is
    bitwise the identity per slice) when the operand is on the tape; a
    free stride-0 broadcast view otherwise.
    """
    if isinstance(v, Tensor) and v.needs_tape():
        return _tile(v, n)
    d = asdata(v)
    return np.broadcast_to(d, (n,) + d.shape)


# ----------------------------------------------------------------------
# Rules: solve family (multi-RHS factorisation reuse)
# ----------------------------------------------------------------------
def _register_rhs_rule(name: str, rhs_pos: int) -> None:
    """Batch a linear-solve-like primitive over its right-hand side.

    The batched RHS ``(N, n)`` is transposed into an ``(n, N)`` column
    block and handed to the primitive unchanged: LAPACK ``getrs`` and
    SuperLU ``solve`` accept RHS blocks, so one cached factorisation
    serves all N solves in a single call — and because the implicit VJP
    solves the *transposed* system with the cotangent block of the same
    shape, the adjoint batches identically.  Anything else batched (the
    matrix, pattern values) punts to the loop.
    """

    @register_rule(name)
    def rule(raw, *args, **kwargs):
        args = list(args)
        for i, arg in enumerate(args):
            if i != rhs_pos and _contains_tracer((arg,)):
                raise _Punt
        if _contains_tracer(tuple(kwargs.values())):
            raise _Punt
        rhs = args[rhs_pos]
        if not isinstance(rhs, BatchTracer):
            raise _Punt
        t, n = rhs.t, _STATE.size
        if n == 0:
            # Output shape can differ from the RHS shape (rectangular
            # lstsq): let the fallback loop's zero-item probe find it.
            raise _Punt
        T, R = _raw("transpose"), _raw("reshape")
        if t.ndim == 2:  # item (n_dof,)
            args[rhs_pos] = T(t)
            return BatchTracer(T(raw(*args, **kwargs)))
        if t.ndim == 3:  # item (n_dof, k): fold (N, k) into one block
            _, nd, k = t.shape
            args[rhs_pos] = R(T(t, (1, 0, 2)), (nd, n * k))
            out = R(raw(*args, **kwargs), (nd, n, k))
            return BatchTracer(T(out, (1, 0, 2)))
        raise _Punt


for _name, _pos in (
    ("solve", 1),
    ("row_scaled_solve", 3),  # (s1, s2, system, b)
    ("lstsq", 1),
    ("lu_solve", 1),  # LUSolver.__call__: (self, b)
    ("sparse_solve", 1),
    ("sparse_lu_solve", 1),  # SparseLUSolver.__call__: (self, b)
    ("sparse_matvec", 1),
    ("sparse_pattern_solve", 4),  # (rows, cols, shape, data, b)
    ("krylov_solve", 1),  # KrylovSolver.__call__: (self, b)
    ("krylov_pattern_solve", 4),  # (rows, cols, shape, data, b)
):
    _register_rhs_rule(_name, _pos)


# ----------------------------------------------------------------------
# Fallback loop rule
# ----------------------------------------------------------------------
def _fallback_loop(name: str, raw: Callable, args: Tuple, kwargs: Dict) -> Any:
    """Degrade gracefully: run the primitive per item and re-stack.

    ``getitem`` extracts each item differentiably and ``stack`` rebuilds
    the batch, so gradients still flow — the cost is N primitive calls
    instead of one.  A zero-length batch probes the output shape with a
    zero dummy item under ``no_grad`` (no real work, correct shape).
    """
    n = _STATE.size
    G, S = _raw("getitem"), _raw("stack")

    def extract(x: Any, i: int) -> Any:
        if isinstance(x, BatchTracer):
            return G(x.t, i)
        if isinstance(x, BatchedMask):
            return x.data[i]
        if isinstance(x, (list, tuple)):
            return type(x)(extract(e, i) for e in x)
        return x

    if n == 0:
        def dummy(x: Any) -> Any:
            if isinstance(x, BatchTracer):
                return np.zeros(x.t.shape[1:])
            if isinstance(x, BatchedMask):
                return np.zeros(x.data.shape[1:], dtype=bool)
            if isinstance(x, (list, tuple)):
                return type(x)(dummy(e) for e in x)
            return x

        with no_grad():
            probe = raw(
                *[dummy(a) for a in args],
                **{k: dummy(v) for k, v in kwargs.items()},
            )
        shape = probe.shape if isinstance(probe, Tensor) else np.shape(probe)
        return BatchTracer(tensor(np.zeros((0,) + tuple(shape))))

    outs = [
        raw(
            *[extract(a, i) for a in args],
            **{k: extract(v, i) for k, v in kwargs.items()},
        )
        for i in range(n)
    ]
    return BatchTracer(S(outs, 0))


# ----------------------------------------------------------------------
# The transform
# ----------------------------------------------------------------------
def _moved_to_front(t: Tensor, axis: int) -> Tensor:
    if axis == 0:
        return t
    ax = axis % t.ndim
    perm = (ax,) + tuple(i for i in range(t.ndim) if i != ax)
    return _raw("transpose")(t, perm)


def _moved_from_front(t: Tensor, axis: int) -> Tensor:
    if axis == 0:
        return t
    ax = axis % t.ndim
    perm = tuple(range(1, ax + 1)) + (0,) + tuple(range(ax + 1, t.ndim))
    return _raw("transpose")(t, perm)


def _wrap_in(spec: Any, val: Any, sizes: List[int]) -> Any:
    if spec is None:
        return val
    if isinstance(val, dict):
        if isinstance(spec, dict):
            return {k: _wrap_in(spec[k], v, sizes) for k, v in val.items()}
        return {k: _wrap_in(spec, v, sizes) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        if isinstance(spec, (list, tuple)):
            if len(spec) != len(val):
                raise ValueError(
                    f"in_axes spec of length {len(spec)} does not match "
                    f"a container of length {len(val)}"
                )
            return type(val)(_wrap_in(s, v, sizes) for s, v in zip(spec, val))
        return type(val)(_wrap_in(spec, v, sizes) for v in val)
    t = val if isinstance(val, Tensor) else tensor(val)
    ax = int(spec)
    if t.ndim < 1:
        raise ValueError("cannot batch a scalar argument along an axis")
    moved = _moved_to_front(t, ax)
    sizes.append(moved.shape[0])
    return BatchTracer(moved)


def _unwrap_out(spec: Any, val: Any, n: int) -> Any:
    if isinstance(val, dict):
        if isinstance(spec, dict):
            return {k: _unwrap_out(spec[k], v, n) for k, v in val.items()}
        return {k: _unwrap_out(spec, v, n) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        if isinstance(spec, (list, tuple)):
            if len(spec) != len(val):
                raise ValueError("out_axes spec does not match output structure")
            return type(val)(_unwrap_out(s, v, n) for s, v in zip(spec, val))
        return type(val)(_unwrap_out(spec, v, n) for v in val)
    if isinstance(val, BatchTracer):
        t = val.t
    elif isinstance(val, BatchedMask):
        return val.data  # boolean outputs: plain stacked array
    else:
        t = _tile(val if isinstance(val, Tensor) else tensor(val), n)
    ax = 0 if spec is None else int(spec)
    return _moved_from_front(t, ax)


def vbatch(
    fn: Callable,
    in_axes: Any = 0,
    out_axes: Any = 0,
) -> Callable:
    """Vectorise ``fn`` over a batch axis (the ``jax.vmap`` analogue).

    Parameters
    ----------
    fn:
        A function of tensors/arrays built from the registered
        primitives.  It is re-traced on every call (define-by-run, like
        the rest of the tape); wrap the *batched* function in
        :func:`~repro.autodiff.compile.compiled_value_and_grad` to
        amortise the trace.
    in_axes:
        An int (batch axis for every positional argument), ``None``
        (argument is closed over, not batched), or a tuple with one such
        entry per positional argument.  Entries may themselves be
        containers mirroring a pytree argument; an int/None entry
        broadcasts over all leaves of its argument.
    out_axes:
        Where to place the batch axis in each output (int, or a
        structure mirroring the output).  Unbatched outputs are
        broadcast to the batch size with a summed-cotangent VJP, exactly
        as a loop over N identical uses would accumulate.

    Returns
    -------
    A function with the same signature whose batched arguments carry an
    extra leading (or ``in_axes``-specified) axis of common length N,
    returning outputs with the batch axis at ``out_axes``.  The result
    is an ordinary tape Tensor: ``backward``/``grad`` see one stacked
    program.  Keyword arguments pass through unbatched.
    """

    def batched(*args, **kwargs):
        if _STATE.active:
            raise RuntimeError("nested vbatch traces are not supported")
        specs = (
            tuple(in_axes)
            if isinstance(in_axes, (tuple, list))
            else (in_axes,) * len(args)
        )
        if len(specs) != len(args):
            raise ValueError(
                f"in_axes has {len(specs)} entries for {len(args)} arguments"
            )
        sizes: List[int] = []
        wrapped = [_wrap_in(s, a, sizes) for s, a in zip(specs, args)]
        if not sizes:
            raise ValueError("in_axes selected no argument to batch")
        n = sizes[0]
        if any(s != n for s in sizes):
            raise ValueError(f"inconsistent batch sizes {sorted(set(sizes))}")
        _STATE.active, _STATE.size = True, n
        try:
            out = fn(*wrapped, **kwargs)
        finally:
            _STATE.active, _STATE.size = False, 0
        return _unwrap_out(out_axes, out, n)

    batched.__name__ = f"vbatch({getattr(fn, '__name__', 'fn')})"
    return batched
