"""Trace-once compilation of ``value_and_grad`` for the reverse-mode tape.

The eager engine rebuilds the whole computation graph — Tensor objects,
VJP closures, fresh ndarray buffers — on *every* call, even though the DP
and PINN hot loops evaluate the same graph topology hundreds of times
with only the input values changing.  JAX (the paper's substrate)
amortises this with trace-once ``jit`` compilation; this module brings the
same execution model to the NumPy tape:

1. **Trace** — the first call per input signature runs eagerly, producing
   an ordinary tape whose leaves own copies of the caller's inputs.
2. **Compile** — the tape is lowered (:mod:`repro.autodiff.lowering`) and
   emitted as one straight-line NumPy kernel
   (:mod:`repro.autodiff.codegen`) that recomputes forward and backward
   in place over persistent buffers and a planned scratch arena.
3. **Replay** — later calls with same-shaped inputs copy the new values
   into the program's leaf buffers and call the kernel: no ``Tensor`` or
   closure construction at all.

Programs are keyed on the shapes/dtypes of the differentiated inputs (and
a content digest of any baked-in constant arguments), so a shape or dtype
change triggers a fresh trace rather than stale-buffer reuse.  Each new
program is validated against the eager result before it is cached; a
program that cannot be lowered, or fails validation, falls back to the
eager tape permanently for that key (counted in ``codegen_fallbacks``).

The generated kernel runs the same NumPy operations in the same order as
the eager backward, so compiled results match the eager tape bit-for-bit
on the problems in this repository (the conformance tests assert it).

Functions whose *structure* depends on input values (data-dependent
branching on tensor values) must not be compiled — like ``jax.jit``, the
trace freezes one execution path.  The control-loop cost functions here
are all structurally static.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.autodiff.functional import Argnums, _normalize_argnums
from repro.obs.metrics import get_registry
from repro.autodiff.tensor import Tensor, asdata, tensor

__all__ = [
    "CompileError",
    "ReplayProfile",
    "compiled_value_and_grad",
    "compiled_value_and_grad_tree",
]


class CompileError(RuntimeError):
    """Raised when a compiled program cannot be run safely."""


def _bump(counters: Dict[str, int], event: str) -> None:
    """Advance a wrapper-local counter and its registry twin together.

    The per-wrapper dict stays authoritative for ``cache_info()`` (tests
    pin it); the ``compile.<event>`` registry counters aggregate across
    every compiled function in the process for metrics exports.
    """
    counters[event] += 1
    get_registry().counter(f"compile.{event}").inc()


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
class KernelStats:
    """Statistics of one generated kernel segment (one profile row).

    ``flops`` and ``bytes_moved`` are *estimates* derived from the traced
    shapes (see :func:`repro.autodiff.lowering._estimate_cost`): good
    enough to rank kernels and to check arithmetic-intensity claims, not a
    hardware counter.
    """

    __slots__ = ("calls", "fwd_seconds", "bwd_seconds", "flops", "bytes_moved")

    def __init__(self) -> None:
        self.calls = 0
        self.fwd_seconds = 0.0
        self.bwd_seconds = 0.0
        self.flops = 0.0
        self.bytes_moved = 0.0


class ReplayProfile:
    """Per-kernel statistics across every trace and compiled call.

    Each row is one fusion group of a generated program (forward and
    backward segments timed separately); opaque ops such as ``solve``
    appear as their own single-op rows.
    """

    def __init__(self) -> None:
        self.kernels: Dict[str, KernelStats] = {}
        self.n_traces = 0
        self.n_replays = 0
        self.n_eager_calls = 0
        self.persistent_bytes = 0
        self.trace_seconds = 0.0
        self.replay_seconds = 0.0
        self.fusion_groups = 0
        self.fused_ops = 0
        self.arena_bytes = 0
        self.arena_slots = 0
        self.buffers_dropped = 0

    def kernel(self, name: str) -> KernelStats:
        """The (auto-created) stats row for one generated kernel."""
        s = self.kernels.get(name)
        if s is None:
            s = self.kernels[name] = KernelStats()
        return s

    def report(self) -> str:
        """Human-readable per-kernel table plus program summary."""
        width = max([22] + [len(n) + 1 for n in self.kernels])
        header = (
            f"{'kernel':<{width}}{'calls':>9}{'fwd ms':>10}{'bwd ms':>10}"
            f"{'MFLOP':>10}{'MB moved':>11}"
        )
        body = [
            f"{name:<{width}}{s.calls:>9d}{s.fwd_seconds * 1e3:>10.3f}"
            f"{s.bwd_seconds * 1e3:>10.3f}"
            f"{s.flops / 1e6:>10.3f}{s.bytes_moved / 1e6:>11.3f}"
            for name, s in sorted(
                self.kernels.items(),
                key=lambda kv: kv[1].fwd_seconds + kv[1].bwd_seconds,
                reverse=True,
            )
        ]
        rule = "-" * len(header)
        return "\n".join([
            f"generated kernels ({self.n_replays} compiled calls):",
            header,
            rule,
            *body,
            rule,
            f"fusion groups: {self.fusion_groups}   fused ops: {self.fused_ops}   "
            f"arena: {self.arena_bytes / 1e6:.3f} MB in {self.arena_slots} slots   "
            f"buffers dropped: {self.buffers_dropped}",
            f"traces: {self.n_traces}   replays: {self.n_replays}   "
            f"eager fallbacks: {self.n_eager_calls}",
            f"persistent buffers: {self.persistent_bytes / 1e6:.3f} MB "
            "(kept values + leaf/root cotangents + arena)",
            f"trace time: {self.trace_seconds * 1e3:.2f} ms   "
            f"replay time: {self.replay_seconds * 1e3:.2f} ms",
        ])


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _const_key(x: Any) -> Any:
    """A hashable key component for a *baked* (non-differentiated) arg.

    Arrays are digested by content: a compiled program freezes constant
    operands at trace time, so changing them must trigger a re-trace.
    """
    if isinstance(x, Tensor):
        x = x.data
    if isinstance(x, np.ndarray):
        return ("arr", x.shape, str(x.dtype), hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest())
    if isinstance(x, (int, float, bool, str, bytes, type(None))):
        return ("lit", x)
    return ("obj", type(x).__qualname__, repr(x))


def _diff_key(x: Any) -> Tuple:
    arr = asdata(x)
    return (arr.shape, arr.dtype)  # dtype objects hash fast; str() does not


def _owned_leaf(x: Any) -> Tensor:
    """A gradient leaf holding its *own copy* of ``x``.

    A compiled program keeps its traced leaves' arrays as input buffers
    that later calls overwrite, so a leaf must never alias the caller's
    array.
    """
    return Tensor(np.array(asdata(x), dtype=np.float64), requires_grad=True)


# ----------------------------------------------------------------------
# Function transforms
# ----------------------------------------------------------------------
def _split_output(out: Any, has_aux: bool, name: str) -> Tuple[Tensor, Tuple[Any, ...]]:
    """``(root, aux)`` of one traced call; ``aux`` is ``()`` without ``has_aux``."""
    aux: Tuple[Any, ...] = ()
    if has_aux:
        out, aux = out
        aux = tuple(aux)
    out_t = tensor(out)
    if out_t.size != 1:
        raise ValueError(f"{name} requires a scalar output, got shape {out_t.shape}")
    return out_t, aux


def _validate(
    program: Any,
    inputs: Sequence[np.ndarray],
    value: float,
    aux: Sequence[float],
    grads: Sequence[np.ndarray],
    wrt: Optional[FrozenSet[int]] = None,
) -> bool:
    """Cross-check one compiled call (restricted to the leaves ``wrt``)
    against the eager trace results."""
    from repro.nn.pytree import zero_outside

    grads = zero_outside(grads, wrt)
    v2, g2 = program.replay(inputs, wrt=wrt)
    for a, b in zip((value, *aux, *grads), (v2, *program.aux_values(), *g2)):
        if not np.allclose(a, b, rtol=1e-12, atol=1e-300, equal_nan=True):
            return False
    return True


def _is_program(entry: Any) -> bool:
    """True for a cached executable program (``None`` marks eager)."""
    return entry is not None and entry is not _MISSING


class _Reference(NamedTuple):
    """A trace's inputs and eager results, kept (without its tape) to
    validate the program's restricted kernels as they are first asked for."""

    inputs: List[np.ndarray]
    value: float
    aux_values: Tuple[float, ...]
    grads: List[np.ndarray]


def _restrict(
    program: Any, wrt: FrozenSet[int], ref: _Reference, counters: Dict[str, int]
) -> None:
    """Bind ``program``'s kernel restricted to the leaves ``wrt``.

    Validated once against the eager trace, like the full kernel; a
    restricted kernel that fails to build or validate is replaced by the
    full kernel for ``wrt`` (its gradients outside ``wrt`` still zero),
    counted in ``codegen_fallbacks``.
    """
    try:
        program.restrict(wrt)
        if not _validate(
            program, ref.inputs, ref.value, ref.aux_values, ref.grads, wrt
        ):
            raise CompileError("restricted kernel failed validation against eager")
    except Exception as exc:
        _bump(counters, "codegen_fallbacks")
        warnings.warn(
            f"restricted kernel failed ({exc}); running the full kernel "
            "for this restriction",
            RuntimeWarning,
            stacklevel=3,
        )
        program.restrict(wrt, full=True)


class _Trace(NamedTuple):
    """One eager call's results and the tape that produced them."""

    value: float
    aux_values: Tuple[float, ...]
    grads: Sequence[np.ndarray]
    root: Tensor
    aux: Tuple[Any, ...]
    leaves: Sequence[Tensor]


def _build_entry(
    trace: _Trace, prof: Optional[ReplayProfile], counters: Dict[str, int]
) -> Optional[Any]:
    """Compile a fresh trace into the cache entry for its signature.

    The generated program is validated against the eager results before
    promotion; a lowering, build or validation failure (an aux output
    that is not on the root's tape among them) makes the entry ``None``
    (permanent eager for this signature), counted in
    ``codegen_fallbacks``.  The traced graph is not retained: once this
    returns, the program holds only its kernel's buffers, the leaf
    buffers, the root value and the aux values.
    """
    from repro.autodiff.codegen import codegen_program

    try:
        prog = codegen_program(
            trace.root, trace.leaves, outputs=trace.aux, profiled=prof is not None
        )
        if not _validate(
            prog, [l.data for l in trace.leaves], trace.value, trace.aux_values, trace.grads
        ):
            raise CompileError("generated kernel failed validation against eager")
    except Exception as exc:
        _bump(counters, "codegen_fallbacks")
        warnings.warn(
            f"codegen lowering failed ({exc}); falling back to the eager "
            "tape for this signature",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if prof is not None:
        st = prog.stats
        prof.persistent_bytes += prog.buffer_bytes
        prof.fusion_groups += st.n_fused_groups
        prof.fused_ops += st.n_fused
        prof.arena_bytes += st.arena_bytes
        prof.arena_slots += st.arena_slots
        prof.buffers_dropped += st.values_dropped + st.cotangents_dropped
    return prog


def _uncompiled_call(
    cache: Dict[Any, Any],
    key: Any,
    program: Any,
    run_eager: Callable[[], _Trace],
    prof: Optional[ReplayProfile],
    counters: Dict[str, int],
) -> _Trace:
    """Run one call eagerly; the first call of a signature also compiles it.

    ``program`` is the cache lookup for ``key``: ``_MISSING`` on first
    sighting (trace and build), ``None`` for a signature that fell back
    to the eager tape.
    """
    t0 = time.perf_counter()
    trace = run_eager()
    if program is _MISSING:
        _bump(counters, "traces")
        cache[key] = _build_entry(trace, prof, counters)
        if prof is not None:
            prof.n_traces += 1
            prof.trace_seconds += time.perf_counter() - t0
    else:
        _bump(counters, "eager")
        if prof is not None:
            prof.n_eager_calls += 1
    return trace


def _cache_info(cache: Dict[Any, Any], counters: Dict[str, int]) -> Callable[[], Dict[str, Any]]:
    def info() -> Dict[str, Any]:
        return {
            **counters,
            "programs": sum(1 for v in cache.values() if v is not None),
            "hit_rate": counters["replays"]
            / max(counters["replays"] + counters["traces"] + counters["eager"], 1),
        }

    return info


def compiled_value_and_grad(
    f: Callable[..., Any],
    argnums: Argnums = 0,
    profile: bool = False,
) -> Callable[..., Tuple[float, Any]]:
    """Trace-once counterpart of :func:`repro.autodiff.functional.value_and_grad`.

    Returns ``g(*args) -> (f(*args), df/dargs)`` with identical semantics;
    the first call per input-shape signature traces eagerly and compiles
    a generated program, later calls run it over reused buffers.
    Functions the compiler cannot express, or whose program fails the
    post-trace validation, run eagerly with a warning (correctness first).
    The caller's arrays are never written: the program copies them in.

    The returned callable exposes ``.profile`` (a :class:`ReplayProfile`
    when ``profile=True``, else ``None``) and ``.cache_info()``.
    """
    nums = _normalize_argnums(argnums)
    cache: Dict[Any, Optional[Any]] = {}
    prof = ReplayProfile() if profile else None
    counters = {"traces": 0, "replays": 0, "eager": 0, "codegen_fallbacks": 0}

    def _eager(args, kwargs) -> _Trace:
        call_args = list(args)
        leaves = []
        for i in nums:
            call_args[i] = leaf = _owned_leaf(args[i])
            leaves.append(leaf)
        out_t, _ = _split_output(
            f(*call_args, **kwargs), False, "compiled_value_and_grad"
        )
        out_t.backward()
        grads = tuple(
            leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for leaf in leaves
        )
        return _Trace(float(out_t.data), (), grads, out_t, (), leaves)

    # The DP hot loop calls ``wrapped(control)`` — one positional diff arg,
    # no kwargs.  Precompute the dispatch shape so the per-call key is two
    # attribute reads and a dict hit.
    single_diff = isinstance(argnums, int) and nums == (argnums,)

    def wrapped(*args: Any, **kwargs: Any) -> Tuple[float, Any]:
        if single_diff and len(args) == 1 and not kwargs:
            arr = asdata(args[0])
            key = ((arr.shape, arr.dtype),)
            program = cache.get(key, _MISSING)
            if _is_program(program):
                _bump(counters, "replays")
                value, grad_list = program.replay((arr,), prof)
                return value, grad_list[0]
        else:
            key = tuple(
                _diff_key(a) if i in nums else _const_key(a)
                for i, a in enumerate(args)
            ) + tuple((k, _const_key(v)) for k, v in sorted(kwargs.items()))
            program = cache.get(key, _MISSING)
        if _is_program(program):
            inputs = [asdata(args[i]) for i in nums]
            value, grad_list = program.replay(inputs, prof)
            _bump(counters, "replays")
            grads = tuple(grad_list)
            return (value, grads[0]) if isinstance(argnums, int) else (value, grads)

        trace = _uncompiled_call(
            cache, key, program, lambda: _eager(args, kwargs), prof, counters
        )
        value, grads = trace.value, trace.grads
        return (value, grads[0]) if isinstance(argnums, int) else (value, grads)

    wrapped.profile = prof
    wrapped.cache_info = _cache_info(cache, counters)
    wrapped._cache = cache
    return wrapped


def compiled_value_and_grad_tree(
    f: Callable[..., Any], profile: bool = False, has_aux: bool = False
) -> Callable[..., Tuple[Any, Any]]:
    """Trace-once counterpart of :func:`repro.nn.pytree.value_and_grad_tree`.

    ``f(params, *rest)`` takes a parameter pytree; the wrapper differentiates
    every leaf.  Used by the PINN training loops, where the loss graph
    topology is identical across all epochs.

    With ``has_aux=True``, ``f`` returns ``(loss, aux)`` — ``aux`` a tuple
    of scalar tensors on the loss's tape — and the wrapper returns
    ``((value, aux_values), grads)``: the program pins the aux nodes'
    buffers, so each call reads them from the same kernel run that
    computed the loss.  An aux the kernel would not recompute (not on the
    loss's tape) makes the signature fall back to the eager tape.

    The keyword-only ``wrt`` (one top-level key of a dict ``params``, as
    for the eager transform) restricts a call: the gradients under every
    other key come back as zero arrays, and a compiled call runs only the
    backward steps that reach ``wrt``'s leaves
    (:meth:`~repro.autodiff.codegen.CodegenProgram.restrict`).  The
    restriction is served from the signature's one cache entry — no new
    trace or program — and its kernel is bound and validated against the
    trace on first use.
    """
    from repro.nn.pytree import (
        tree_flatten, tree_key_leaves, tree_unflatten, zero_outside,
    )

    cache: Dict[Any, Optional[Any]] = {}
    refs: Dict[Any, _Reference] = {}
    prof = ReplayProfile() if profile else None
    counters = {"traces": 0, "replays": 0, "eager": 0, "codegen_fallbacks": 0}

    def _eager(params, args, kwargs) -> _Trace:
        leaves, treedef = tree_flatten(params)
        leaf_tensors = [_owned_leaf(x) for x in leaves]
        out_t, aux = _split_output(
            f(tree_unflatten(treedef, leaf_tensors), *args, **kwargs),
            has_aux,
            "compiled_value_and_grad_tree",
        )
        out_t.backward()
        grads = [
            t.grad if t.grad is not None else np.zeros_like(t.data)
            for t in leaf_tensors
        ]
        aux_values = tuple(float(asdata(a)) for a in aux)
        return _Trace(float(out_t.data), aux_values, grads, out_t, aux, leaf_tensors)

    def wrapped(
        params: Any, *args: Any, wrt: Any = None, **kwargs: Any
    ) -> Tuple[Any, Any]:
        leaves, treedef = tree_flatten(params)
        active = None if wrt is None else tree_key_leaves(treedef, wrt)
        key = (
            treedef,
            tuple(_diff_key(l) for l in leaves),
            tuple(_const_key(a) for a in args),
            tuple((k, _const_key(v)) for k, v in sorted(kwargs.items())),
        )

        program = cache.get(key, _MISSING)
        if _is_program(program):
            if active is not None and not program.restricted(active):
                _restrict(program, active, refs[key], counters)
            value, grads = program.replay([asdata(l) for l in leaves], prof, active)
            _bump(counters, "replays")
            if has_aux:
                value = (value, program.aux_values())
            return value, tree_unflatten(treedef, grads)

        trace = _uncompiled_call(
            cache, key, program, lambda: _eager(params, args, kwargs), prof, counters
        )
        if program is _MISSING and _is_program(cache[key]):
            refs[key] = _Reference(
                [l.data.copy() for l in trace.leaves],
                trace.value,
                trace.aux_values,
                [g.copy() for g in trace.grads],
            )
        value = (trace.value, trace.aux_values) if has_aux else trace.value
        return value, tree_unflatten(treedef, zero_outside(trace.grads, active))

    wrapped.profile = prof
    wrapped.cache_info = _cache_info(cache, counters)
    wrapped._cache = cache
    return wrapped


_MISSING = object()
