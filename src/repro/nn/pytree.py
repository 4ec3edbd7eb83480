"""Minimal pytree utilities (JAX style) over nested lists/tuples/dicts.

Model parameters are stored as nested containers of ``numpy`` arrays.  The
helpers here flatten/unflatten those containers, map functions over leaves,
and differentiate with respect to them: :func:`value_and_grad_tree` is
JAX's ``value_and_grad`` over a pytree argument.  Its traced call,
``_trace`` (gradient leaves, the function, one backward pass, zero-filled
gradients), is the only one in the package: the flat
:func:`repro.autodiff.value_and_grad` runs it over the tuple of its
differentiated arguments, and both compiled transforms in
:mod:`repro.autodiff.compile` run it to trace a program.
"""

from __future__ import annotations

import math
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.autodiff.tensor import Tensor, asdata, tensor


def _is_leaf(x: Any) -> bool:
    return not isinstance(x, (list, tuple, dict))


_LEAF = ("leaf", None, None)
_END = object()


def tree_flatten(tree: Any) -> Tuple[List[Any], Any]:
    """Flatten a nested container into ``(leaves, treedef)``.

    The treedef is a nested tuple usable with :func:`tree_unflatten`;
    being hashable, it can key a cache directly.  Dict keys are traversed
    in sorted order for determinism.
    """
    leaves: List[Any] = []

    def build(node: Any) -> Any:
        if isinstance(node, dict):
            keys = tuple(sorted(node.keys()))
            return ("dict", keys, tuple([build(node[k]) for k in keys]))
        if isinstance(node, list):
            return ("list", None, tuple([build(c) for c in node]))
        if isinstance(node, tuple):
            return ("tuple", None, tuple([build(c) for c in node]))
        leaves.append(node)
        return _LEAF

    treedef = build(tree)
    return leaves, treedef


def tree_unflatten(treedef: Any, leaves: Sequence[Any]) -> Any:
    """Rebuild a nested container from ``treedef`` and a leaf sequence."""
    it = iter(leaves)

    def build(node: Any) -> Any:
        kind, keys, children = node
        if kind == "leaf":
            return next(it)
        if kind == "dict":
            return {k: build(c) for k, c in zip(keys, children)}
        seq = [build(c) for c in children]
        return seq if kind == "list" else tuple(seq)

    out = build(treedef)
    if next(it, _END) is not _END:  # every leaf must be consumed
        raise ValueError("too many leaves for treedef")
    return out


def tree_leaves(tree: Any) -> List[Any]:
    """Return the flat list of leaves of ``tree``."""
    return tree_flatten(tree)[0]


def tree_map(f: Callable[[Any], Any], tree: Any) -> Any:
    """Apply ``f`` to every leaf, preserving the container structure."""
    leaves, treedef = tree_flatten(tree)
    return tree_unflatten(treedef, [f(x) for x in leaves])


def tree_zip_map(f: Callable[..., Any], *trees: Any) -> Any:
    """Apply ``f`` leafwise across same-structured trees."""
    flat = [tree_flatten(t) for t in trees]
    leaves0, treedef = flat[0]
    n = len(leaves0)
    for lv, _ in flat[1:]:
        if len(lv) != n:
            raise ValueError("pytrees have mismatched structure")
    zipped = [f(*(flat[k][0][i] for k in range(len(trees)))) for i in range(n)]
    return tree_unflatten(treedef, zipped)


def _concat(leaves: Sequence[Any]) -> np.ndarray:
    if not leaves:
        return np.zeros(0)
    return np.concatenate([np.ravel(x) for x in leaves], dtype=np.float64)


def ravel_leaves(tree: Any) -> np.ndarray:
    """Every leaf of ``tree``, raveled and concatenated into one float64
    vector (``tree_flatten`` order)."""
    return _concat(tree_flatten(tree)[0])


def tree_ravel(tree: Any) -> Tuple[np.ndarray, Callable[[np.ndarray], Any]]:
    """``(flat, unravel)``: the leaves as one vector and its inverse.

    ``flat`` is :func:`ravel_leaves` of ``tree``; ``unravel(v)`` rebuilds
    the tree from any vector of that length, every leaf a reshaped *view*
    of ``v`` (the ``jax.flatten_util.ravel_pytree`` analogue).
    """
    leaves, treedef = tree_flatten(tree)
    shapes = [np.shape(x) for x in leaves]
    bounds = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
    spans = list(zip(bounds, bounds[1:], shapes))

    def unravel(v: np.ndarray) -> Any:
        return tree_unflatten(treedef, [v[lo:hi].reshape(s) for lo, hi, s in spans])

    return _concat(leaves), unravel


def _n_leaves(treedef: Any) -> int:
    kind, _, children = treedef
    return 1 if kind == "leaf" else sum(_n_leaves(c) for c in children)


def tree_key_leaves(treedef: Any, key: Any) -> FrozenSet[int]:
    """Positions, in ``tree_flatten`` order, of the leaves under the
    top-level dict key ``key`` of a tree with this ``treedef``.

    Raises ``ValueError`` when the tree is not a dict or lacks ``key``.
    """
    kind, keys, children = treedef
    if kind != "dict" or key not in keys:
        known = list(keys) if kind == "dict" else "none: not a dict"
        raise ValueError(
            f"wrt={key!r} is not a top-level key of the parameters (keys: {known})"
        )
    i = keys.index(key)
    lo = sum(_n_leaves(c) for c in children[:i])
    return frozenset(range(lo, lo + _n_leaves(children[i])))


def zero_outside(
    grads: Sequence[np.ndarray], active: Optional[FrozenSet[int]]
) -> List[np.ndarray]:
    """``grads`` with every leaf outside ``active`` replaced by zeros
    (all kept for ``None``)."""
    if active is None:
        return list(grads)
    return [g if j in active else np.zeros_like(g) for j, g in enumerate(grads)]


class _Trace(NamedTuple):
    """One eager call on gradient leaves, after its backward pass."""

    value: float
    aux_values: Tuple[float, ...]
    grads: List[np.ndarray]
    root: Tensor
    aux: Tuple[Any, ...]
    leaves: List[Tensor]
    treedef: Any


def _trace(
    f: Callable[..., Any], params: Any, args: Sequence[Any],
    kwargs: Dict[str, Any], has_aux: bool, name: str,
) -> _Trace:
    """Run ``f(params, *args, **kwargs)`` on gradient leaves of ``params``,
    then its backward pass: the one traced call of every value-and-grad
    transform.  Each leaf owns a float64 copy of its input (a compiled
    program takes the leaves' arrays over as input buffers); a non-scalar
    output raises ``ValueError`` naming the transform ``name``.
    """
    leaves, treedef = tree_flatten(params)
    leaf_tensors = [
        Tensor(np.array(asdata(x), dtype=np.float64), requires_grad=True)
        for x in leaves
    ]
    out = f(tree_unflatten(treedef, leaf_tensors), *args, **kwargs)
    aux: Tuple[Any, ...] = ()
    if has_aux:
        out, aux = out
        aux = tuple(aux)
    root = tensor(out)
    if root.size != 1:
        raise ValueError(f"{name} requires a scalar output, got shape {root.shape}")
    root.backward()
    grads = [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in leaf_tensors
    ]
    aux_values = tuple([float(asdata(a)) for a in aux])
    return _Trace(float(root.data), aux_values, grads, root, aux, leaf_tensors, treedef)


def value_and_grad_tree(
    f: Callable[..., Any],
    has_aux: bool = False,
) -> Callable[..., Tuple[Any, Any]]:
    """``value_and_grad`` where the *first* argument is a parameter pytree.

    ``f(params, *rest)`` must return a scalar; the transform returns
    ``(value, grads)`` with ``grads`` a pytree of the same structure holding
    ``numpy`` arrays.  Remaining positional arguments are passed through
    unchanged (not differentiated).

    With ``has_aux=True`` (JAX's convention) ``f`` returns ``(loss, aux)``
    where ``aux`` is a tuple of scalar tensors computed alongside the
    loss; the transform returns ``((value, aux_values), grads)`` with
    ``aux_values`` a tuple of floats.

    The keyword-only ``wrt`` names one top-level key of a dict
    ``params``: the gradients under every other key come back as zero
    arrays (the alternating PINN updates train one network per step).
    It is not passed on to ``f``; an unknown key raises ``ValueError``.
    """

    def wrapped(
        params: Any, *args: Any, wrt: Any = None, **kwargs: Any
    ) -> Tuple[Any, Any]:
        tr = _trace(f, params, args, kwargs, has_aux, "value_and_grad_tree")
        active = None if wrt is None else tree_key_leaves(tr.treedef, wrt)
        grads = tree_unflatten(tr.treedef, zero_outside(tr.grads, active))
        return ((tr.value, tr.aux_values) if has_aux else tr.value), grads

    return wrapped


def grad_tree(f: Callable[..., Any]) -> Callable[..., Any]:
    """Gradient-only counterpart of :func:`value_and_grad_tree`."""
    vg = value_and_grad_tree(f)

    def wrapped(params: Any, *args: Any, **kwargs: Any) -> Any:
        return vg(params, *args, **kwargs)[1]

    return wrapped
