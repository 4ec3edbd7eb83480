"""Function transforms: ``grad``, ``value_and_grad``, ``jacobian``.

These mirror the JAX API surface the paper's framework uses.  A function
``f`` written against :mod:`repro.autodiff` primitives (or against plain
operator syntax on tensors) is transformed into one returning exact
gradients of its scalar output.  :func:`value_and_grad` (and so
:func:`grad`) is an adapter: it runs the tree transforms' traced call,
:func:`repro.nn.pytree._trace`, over the tuple of the differentiated
arguments, as :func:`repro.autodiff.compile.compiled_value_and_grad`
runs the compiled tree transform's body.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple, Union

import numpy as np

from repro.autodiff.tensor import Tensor, asdata, tensor

Argnums = Union[int, Tuple[int, ...]]


def _normalize_argnums(argnums: Argnums) -> Tuple[int, ...]:
    return (argnums,) if isinstance(argnums, int) else tuple(argnums)


def _split_args(
    args: Sequence[Any], nums: Tuple[int, ...]
) -> Tuple[Tuple[np.ndarray, ...], Tuple[Any, ...]]:
    """``(diff, rest)``: the differentiated args as a tuple of arrays (so a
    list-valued argument stays one leaf), and ``args`` with ``None`` in
    their slots (so a compiled call never keys a program on their values)."""
    diff = tuple([asdata(args[i]) for i in nums])
    rest = tuple([None if i in nums else a for i, a in enumerate(args)])
    return diff, rest


def _over_diff_args(f: Callable[..., Any], nums: Tuple[int, ...]) -> Callable[..., Any]:
    """``f`` as a tree function ``g(diff, *rest, **kwargs)`` of the tuple
    of its differentiated args, which go back into the slots ``nums``."""

    def g(diff: Sequence[Any], *rest: Any, **kwargs: Any) -> Any:
        full = list(rest)
        for i, x in zip(nums, diff):
            full[i] = x
        return f(*full, **kwargs)

    return g


def value_and_grad(
    f: Callable[..., Any], argnums: Argnums = 0
) -> Callable[..., Tuple[float, Any]]:
    """Return ``g(*args) -> (f(*args), df/dargs)``.

    The output of ``f`` must be a scalar (tensor or float).  Gradients are
    returned as raw ``numpy`` arrays matching the argument shapes; a single
    array when ``argnums`` is an int, a tuple otherwise.
    """
    from repro.nn.pytree import _trace

    nums = _normalize_argnums(argnums)
    g = _over_diff_args(f, nums)

    def wrapped(*args: Any, **kwargs: Any) -> Tuple[float, Any]:
        diff, rest = _split_args(args, nums)
        tr = _trace(g, diff, rest, kwargs, False, "value_and_grad")
        grads = tuple(tr.grads)
        return tr.value, (grads[0] if isinstance(argnums, int) else grads)

    return wrapped


def grad(f: Callable[..., Any], argnums: Argnums = 0) -> Callable[..., Any]:
    """Reverse-mode gradient transform (JAX-style ``grad``)."""
    vg = value_and_grad(f, argnums)

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        _, g = vg(*args, **kwargs)
        return g

    return wrapped


def jacobian(f: Callable[..., Any], argnum: int = 0) -> Callable[..., np.ndarray]:
    """Dense Jacobian of a vector-valued function via row-wise reverse mode.

    Runs one backward pass per output component; intended for small outputs
    (verification, adjoint cross-checks), not production hot loops.
    """

    def wrapped(*args: Any, **kwargs: Any) -> np.ndarray:
        call_args = list(args)
        leaf = Tensor(asdata(args[argnum]), requires_grad=True)
        call_args[argnum] = leaf
        out = tensor(f(*call_args, **kwargs))
        out_flat_shape = out.data.size
        jac = np.zeros((out_flat_shape,) + leaf.data.shape)
        for i in range(out_flat_shape):
            leaf.zero_grad()
            seed = np.zeros(out.data.shape)
            seed.flat[i] = 1.0
            out.backward(seed)
            jac[i] = leaf.grad if leaf.grad is not None else 0.0
        return jac.reshape(out.data.shape + leaf.data.shape)

    return wrapped


def stop_gradient(x: Any) -> Tensor:
    """Detach ``x`` from the tape (identity forward, zero backward)."""
    return tensor(x).detach() if isinstance(x, Tensor) else tensor(x)
