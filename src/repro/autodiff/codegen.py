"""Source-emitting codegen backend: the compiled tier's executable.

Takes the lowered IR from :mod:`repro.autodiff.lowering` and emits one
Python source string of straight-line NumPy — forward sweep then
backward sweep — with every kernel written in place (``out=`` /
``where=``) into the program's persistent buffers or into arena slots.
The source is ``compile()``d once per program and bound into a function
whose *keyword defaults* are the buffers, constants, masks, and recorded
closures (CPython resolves defaults as locals — no global/dict lookups
in the hot loop).  Running the program is then a single function call:
no per-op dispatch, no VJP closure calls, no backward temporaries beyond
the planned arena.

Numerics are kept bit-compatible with the eager tape wherever the
emitted expression can preserve eager's evaluation order (same ufunc,
same operand order, same unbroadcast reduction sequence); the few ops
where exact order cannot be reproduced in place emit the eager
expression verbatim (allocating, like eager does).  Every generated
program is additionally validated against the eager trace before it is
cached — see :func:`repro.autodiff.compile.compiled_value_and_grad`.

Non-fusible ops (``solve`` and friends, sparse products, stacked
matmuls, ``concatenate``/``stack``, ``amax``) are called through the
closures the trace recorded — ``F{i}`` forward, ``V{i}_{j}`` VJP — so a
program containing them still compiles end to end.

Buffer ownership: a built :class:`CodegenProgram` holds the kernel (whose
defaults are the kept value buffers, the leaf and root cotangent
buffers, the arena slots, constants and opaque-op closures), the leaf
input buffers, the root value buffer and the value buffers of any aux
outputs (kept values, pinned at lowering) — nothing else.  The traced
``Tensor`` graph is not referenced, so value buffers that dead-buffer
elimination dropped are freed with it.

Wrappers built with ``profile=True`` also get a variant of the source
carrying one ``perf_counter`` pair per fusion group (forward and
backward segments separately), feeding the per-kernel table in
:class:`~repro.autodiff.compile.ReplayProfile`.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.elementwise import (
    ELEMENTWISE,
    IDENTITY,
    NEGATE,
    bind,
    call,
    in_place,
)
from repro.autodiff.lowering import (
    ArenaPlanner,
    BwdStep,
    IRNode,
    LoweredProgram,
    LoweringError,
    leaf_dependence,
    lower,
    unbroadcast_plan,
)

__all__ = ["CodegenProgram", "codegen_program"]


class _Segment:
    __slots__ = ("name", "phase", "flops", "bytes_moved")

    def __init__(self, name: str, phase: str, flops: float = 0.0, bytes_moved: float = 0.0):
        self.name = name
        self.phase = phase
        self.flops = flops
        self.bytes_moved = bytes_moved


class _Emitter:
    """Walks the lowered IR once, producing tagged source lines.

    Buffer/closure objects are collected into ``params`` (name → object)
    and become the generated function's keyword defaults.  Arena slots
    are requested from the planner in step order as the walk reaches
    them, so the planner's sorted-start precondition holds by
    construction.
    """

    def __init__(self, lowered: LoweredProgram) -> None:
        self.lw = lowered
        self.nodes = lowered.nodes
        self.planner = ArenaPlanner()
        self.params: Dict[str, Any] = {"np": np, "_perf": time.perf_counter}
        # (segment, backward step or -1 for forward/seed, source line)
        self.body: List[Tuple[int, int, str]] = []
        self.segments: List[_Segment] = []
        self._seg = -1
        self._bwd = -1
        self.step = 0
        self._const_names: Dict[int, str] = {}
        self.valname: Dict[int, str] = {}
        self.cotname: Dict[int, str] = {}

        for ir in self.nodes:
            if not ir.value_transient:
                name = f"b{ir.idx}"
                self.params[name] = ir.node.data
                self.valname[ir.idx] = name
            if not ir.cot_transient:  # leaves and the root
                name = f"g{ir.idx}"
                self.params[name] = np.empty_like(ir.node.data)
                self.cotname[ir.idx] = name

        # Copy-propagation pre-scan: a cotangent written by exactly one
        # push that merely *forwards* another cotangent (identity add/sub,
        # reshape/transpose views) never needs its own buffer — readers
        # use the source cotangent (through a zero-copy view for the view
        # ops) and the copy disappears.  The source's arena interval must
        # then cover the alias's reads, so extended endpoints are fixed
        # here, before any slot is allocated.
        self._push_count: Dict[int, int] = {}
        for st in lowered.bwd_steps:
            self._push_count[st.dst] = self._push_count.get(st.dst, 0) + 1
        alias_parent: Dict[int, int] = {}
        self._alias_steps: set = set()
        for st in lowered.bwd_steps:
            if self._push_count[st.dst] != 1:
                continue
            d = self.nodes[st.dst]
            if not d.cot_transient:
                continue
            s = self.nodes[st.src]
            if not s.symbolic_bwd:
                continue
            entry = ELEMENTWISE.get(s.op)
            p = s.arg_pos[st.slot] if s.arg_pos else 0
            if entry is not None and entry.vjp[p] == IDENTITY:
                ok = unbroadcast_plan(s.shape, d.shape) is None
            else:
                ok = s.op in ("reshape", "transpose")
            if ok:
                alias_parent[st.dst] = st.src
                self._alias_steps.add(st.step)
        self._cot_end: Dict[int, int] = {}
        for dst in alias_parent:
            root = dst
            while root in alias_parent:
                root = alias_parent[root]
            end = max(
                self._cot_end.get(root, lowered.last_read.get(root, -1)),
                lowered.last_read[dst],
            )
            self._cot_end[root] = end

    # -- infrastructure ------------------------------------------------
    def seg(self, name: str, phase: str, flops: float = 0.0, moved: float = 0.0) -> None:
        self.segments.append(_Segment(name, phase, flops, moved))
        self._seg = len(self.segments) - 1

    def line(self, code: str) -> None:
        self.body.append((self._seg, self._bwd, code))

    def const(self, obj: Any) -> str:
        name = self._const_names.get(id(obj))
        if name is None:
            name = f"c{len(self._const_names)}"
            self._const_names[id(obj)] = name
            self.params[name] = obj
        return name

    def literal(self, v: Any) -> str:
        if isinstance(v, bool) or v is None:
            return repr(v)
        if isinstance(v, (int, float)) and math.isfinite(v):
            return repr(v)
        return self.const(v)

    def _slot_name(self, slot: int, like: Optional[np.ndarray] = None) -> str:
        name = f"s{slot}"
        if name not in self.params:
            shape, dt, layout = self.planner.slots[slot]
            self.params[name] = (
                np.empty(shape, dtype=dt) if layout is None
                else np.empty_like(like)
            )
        return name

    def scratch(self, shape: Tuple[int, ...], dtype: Any) -> str:
        slot = self.planner.alloc(tuple(shape), dtype, self.step, self.step)
        return self._slot_name(slot)

    def def_val(self, ir: IRNode) -> str:
        """Destination name for a node's forward value (allocates if transient)."""
        if not ir.value_transient:
            return self.valname[ir.idx]
        # The slot mirrors the eager buffer's layout (see ArenaPlanner).
        data = ir.node.data
        layout = None if data.flags.c_contiguous else data.strides
        slot = self.planner.alloc(
            ir.shape, ir.dtype, ir.fwd_step, ir.last_value_use, layout
        )
        name = self._slot_name(slot, data)
        self.valname[ir.idx] = name
        return name

    def val(self, idx: int) -> str:
        return self.valname[idx]

    def bval(self, idx: int) -> str:
        """A node value referenced by *backward* code: must be pinned."""
        if self.nodes[idx].value_transient:
            raise LoweringError(
                f"backward reads value of node {idx} ({self.nodes[idx].op}) "
                "but dead-buffer elimination dropped it"
            )
        return self.valname[idx]

    def ref(self, ir: IRNode, k: int, bwd: bool = False) -> str:
        kind, r = ir.args[k]
        if kind == "node":
            return self.bval(r) if bwd else self.val(r)
        return self.const(self.lw.consts[r][1])

    def symbol(self, ir: IRNode, sym: str, g: Optional[str] = None) -> str:
        """Source for one table symbol of ``ir`` (see
        :mod:`repro.autodiff.elementwise`); ``g`` is given in backward code."""
        bwd = g is not None
        if sym == "g":
            return g
        if sym == "out":
            return self.bval(ir.idx)
        if sym in ("x", "y"):
            return self.ref(ir, "xy".index(sym), bwd)
        return self.literal(ir.params[sym])

    def cot_target(self, st: BwdStep) -> str:
        idx = st.dst
        name = self.cotname.get(idx)
        if name is None:
            ir = self.nodes[idx]
            slot = self.planner.alloc(
                ir.shape,
                ir.dtype,
                self.lw.first_write[idx],
                # Alias classes extend the root slot's life to cover every
                # member's reads (see the pre-scan in ``__init__``).
                self._cot_end.get(idx, self.lw.last_read[idx]),
            )
            name = self._slot_name(slot)
            self.cotname[idx] = name
        return name

    def _sole_transient(self, idx: int) -> bool:
        """True when ``idx``'s cotangent has exactly one writer and no
        external reader — its sole push may rebind a local instead of
        copying into an arena slot."""
        return self._push_count.get(idx) == 1 and self.nodes[idx].cot_transient

    # -- forward -------------------------------------------------------
    def emit(self) -> None:
        lw = self.lw
        nodes = self.nodes
        for g in lw.groups:
            self.seg(g.name(nodes), "fwd", g.flops, g.bytes_moved)
            for idx in g.members:
                ir = nodes[idx]
                self.step = ir.fwd_step
                self.emit_fwd(ir)

        self.seg("seed", "bwd")
        self.line("g0[...] = 1.0")
        last_key: Any = object()
        for k, st in enumerate(lw.bwd_steps):
            src = nodes[st.src]
            self.step = st.step
            self._bwd = k
            key = src.group if src.group >= 0 else f"view:{src.op}"
            if key != last_key:
                name = (
                    lw.groups[src.group].name(nodes)
                    if src.group >= 0
                    else src.op
                )
                self.seg(name, "bwd")
                last_key = key
            self.emit_push(st)

    def emit_fwd(self, ir: IRNode) -> None:
        op = ir.op
        if not ir.symbolic_fwd:  # opaque: recorded closure, in place
            name = f"F{ir.idx}"
            self.params[name] = ir.node._fwd
            self.line(f"{name}({self.val(ir.idx)})")
            return
        o = self.def_val(ir)
        entry = ELEMENTWISE.get(op)
        if entry is not None:
            def resolve(sym: str) -> str:
                return self.symbol(ir, sym)

            fwd = bind(entry.fwd, resolve)
            lines = [f"np.copyto({o}, {fwd})"] if isinstance(fwd, str) else in_place(fwd, o)
            for name, aux in entry.aux:
                m = self.literal(ir.params[name])
                lines += in_place(bind(aux, resolve), m)
            for line in lines:
                self.line(line)
            return
        a = [self.ref(ir, k) for k in range(len(ir.args))]
        if op in ("sum", "mean"):
            axis = ir.params["axis"]
            kd = ir.params["keepdims"]
            self.line(f"{a[0]}.{op}(axis={axis!r}, keepdims={kd!r}, out={o})")
        elif op == "matmul":
            self.line(f"np.matmul({a[0]}, {a[1]}, out={o})")
        else:  # pragma: no cover - classification guarantees coverage
            raise LoweringError(f"no forward emitter for op {op!r}")

    # -- backward ------------------------------------------------------
    def _plan_expr(self, e: str, plan, S: Tuple[int, ...]) -> str:
        lead, keep = plan
        if lead:
            e = f"{e}.sum(axis={lead})"
        if keep:
            e = f"{e}.sum(axis={keep}, keepdims=True)"
        return f"{e}.reshape({S})"

    def _accumulate(self, st: BwdStep, t: str, e: str) -> None:
        if st.first:
            self.line(f"np.copyto({t}, {e})")
        else:
            self.line(f"{t} += {e}")

    def push_identity(self, st: BwdStep, src: str, O, S, negate: bool = False) -> None:
        plan = unbroadcast_plan(O, S)
        t = self.cot_target(st)
        if plan is None:
            if negate:
                self.line(f"np.negative({src}, out={t})" if st.first else f"{t} -= {src}")
            elif st.first:
                self.line(f"np.copyto({t}, {src})")
            else:
                self.line(f"{t} += {src}")
        else:
            e = f"(-{src})" if negate else src
            self._accumulate(st, t, self._plan_expr(e, plan, S))

    def push_chain(self, st: BwdStep, steps, O, S, dtype) -> None:
        plan = unbroadcast_plan(O, S)
        t = self.cot_target(st)
        direct = plan is None and st.first
        if direct and len(steps) == 1:
            self.line(call(steps[0], "", t))
            return
        s = self.scratch(O, dtype)
        last = len(steps) - 1
        for i, step in enumerate(steps):
            self.line(call(step, s, t if (direct and i == last) else s))
        if direct:
            return
        if plan is None:
            self.line(f"{t} += {s}")
        else:
            self._accumulate(st, t, self._plan_expr(s, plan, S))

    def push_expr(self, st: BwdStep, expr: str, O, S) -> None:
        plan = unbroadcast_plan(O, S)
        e = expr if plan is None else self._plan_expr(f"({expr})", plan, S)
        if st.first and self._sole_transient(st.dst):
            # The expression allocates its result (eager does too); a sole
            # writer can bind it directly instead of copying into a slot.
            t = f"a{st.dst}"
            self.cotname[st.dst] = t
            self.line(f"{t} = {e}")
            return
        t = self.cot_target(st)
        self._accumulate(st, t, e)

    def emit_push(self, st: BwdStep) -> None:
        s = self.nodes[st.src]
        d = self.nodes[st.dst]
        g = self.cotname[st.src]
        O, S = s.shape, d.shape
        dt = s.dtype

        if st.step in self._alias_steps:
            # Copy propagation: the destination cotangent IS the source
            # cotangent (through a zero-copy view for reshape/transpose).
            if s.op == "reshape":
                self.cotname[st.dst] = f"{g}.reshape({S})"
            elif s.op == "transpose":
                self.cotname[st.dst] = f"np.transpose({g}, {s.params['inv']!r})"
            else:
                self.cotname[st.dst] = g
            return

        if not s.symbolic_bwd:  # recorded VJP closure
            name = f"V{st.src}_{st.slot}"
            self.params[name] = s.node._parents[st.slot][1]
            if self._sole_transient(st.dst):
                # The closure allocates its result anyway; with a single
                # writer and only downstream reads, bind it directly
                # instead of copying into an arena slot.
                t = f"a{st.dst}"
                self.cotname[st.dst] = t
                self.line(f"{t} = {name}({g})")
                return
            t = self.cot_target(st)
            if st.first:
                self.line(f"np.copyto({t}, {name}({g}))")
            else:
                self.line(f"{t} += {name}({g})")
            return

        op = s.op
        p = s.arg_pos[st.slot] if s.arg_pos else 0
        entry = ELEMENTWISE.get(op)

        if entry is not None:
            self._push_elementwise(st, s, entry.vjp[p], g, O, S, dt)
        elif op in ("sum", "mean"):
            self._push_reduction(st, s, g, S)
        elif op == "matmul":
            self._push_matmul(st, s, g, p, S, dt)
        elif op == "reshape":
            self.push_identity(st, f"{g}.reshape({S})", S, S)
        elif op == "transpose":
            inv = s.params["inv"]
            self.push_identity(st, f"np.transpose({g}, {inv!r})", S, S)
        elif op == "getitem":
            self._push_scatter(st, s, g, S, d.dtype)
        else:  # pragma: no cover
            raise LoweringError(f"no backward emitter for op {op!r}")

    def _push_elementwise(self, st: BwdStep, s: IRNode, rule, g: str, O, S, dt) -> None:
        cse = self.lw.cse_tanh.get(st.src)
        if rule == IDENTITY:
            self.push_identity(st, g, O, S)
        elif rule == NEGATE:
            self.push_identity(st, g, O, S, negate=True)
        elif cse is not None:
            # The forward taped ``1 - tanh^2`` (derivative propagation);
            # reuse it — one multiply instead of the three-kernel
            # recomputation, bitwise-identical.
            self.push_chain(st, [("multiply", g, self.bval(cse))], O, S, dt)
        else:
            rule = bind(rule, lambda sym: self.symbol(s, sym, g))
            if isinstance(rule, str):
                self.push_expr(st, rule, O, S)
            else:
                self.push_chain(st, rule, O, S, dt)

    def _push_reduction(self, st: BwdStep, s: IRNode, g: str, S) -> None:
        axis = s.params["axis"]
        kd = s.params["keepdims"]
        if axis is None or kd:
            e = g
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            norm = sorted(a % len(S) for a in axes)
            exp = tuple(1 if i in norm else S[i] for i in range(len(S)))
            e = f"{g}.reshape({exp})"
        if s.op == "mean":
            e = f"({e} / {s.params['denom']!r})"
        t = self.cot_target(st)
        self._accumulate(st, t, e)  # copyto/+= broadcast against the target

    def _push_matmul(self, st: BwdStep, s: IRNode, g: str, p: int, S, dt) -> None:
        A = self.ref(s, 0, bwd=True)
        B = self.ref(s, 1, bwd=True)
        # operand ranks come from the recorded arrays, not tape nodes
        meta_a, meta_b = s.node._meta[0]
        na, nb = meta_a.ndim, meta_b.ndim
        if (na, nb) == (2, 2):
            args = (g, f"{B}.T") if p == 0 else (f"{A}.T", g)
            self.push_chain(st, [("matmul", *args)], S, S, dt)
        elif (na, nb) == (2, 1):
            if p == 0:  # np.outer(g, B)
                self.push_chain(st, [("multiply", f"{g}[:, None]", B)], S, S, dt)
            else:
                self.push_chain(st, [("matmul", f"{A}.T", g)], S, S, dt)
        elif (na, nb) == (1, 2):
            if p == 0:
                self.push_chain(st, [("matmul", B, g)], S, S, dt)
            else:  # np.outer(A, g)
                self.push_chain(st, [("multiply", f"{A}[:, None]", g)], S, S, dt)
        elif na >= 2 and nb >= 2:
            # Stacked operands: eager's general formulas
            #   dA = unbroadcast(g @ swapaxes(B, -1, -2), A.shape)
            #   dB = unbroadcast(swapaxes(A, -1, -2) @ g, B.shape)
            # — the matmul result shape is the cotangent's batch dims plus
            # the operand's matrix dims, and the unbroadcast plan reduces
            # any stacked axes the operand broadcast over.
            batch = s.shape[:-2]

            def swapT(name: str, nd: int) -> str:
                return f"{name}.T" if nd == 2 else f"np.swapaxes({name}, -1, -2)"

            if p == 0:
                O2 = batch + (meta_a.shape[-2], meta_a.shape[-1])
                self.push_chain(st, [("matmul", g, swapT(B, nb))], O2, S, dt)
            else:
                O2 = batch + (meta_b.shape[-2], meta_b.shape[-1])
                self.push_chain(st, [("matmul", swapT(A, na), g)], O2, S, dt)
        else:  # pragma: no cover - classification keeps other combos opaque
            raise LoweringError(f"matmul combo ({na}, {nb}) is not symbolic")

    def _push_scatter(self, st: BwdStep, s: IRNode, g: str, S, dtype) -> None:
        idx = self.const(s.params["index"])
        unique = s.params["unique"]
        t = self.cot_target(st)
        if st.first:
            self.line(f"{t}[...] = 0.0")
            if unique:
                self.line(f"{t}[{idx}] = {g}")
            else:
                self.line(f"np.add.at({t}, {idx}, {g})")
        elif unique:
            self.line(f"{t}[{idx}] += {g}")
        else:
            sc = self.scratch(S, dtype)
            self.line(f"{sc}[...] = 0.0")
            self.line(f"np.add.at({sc}, {idx}, {g})")
            self.line(f"{t} += {sc}")

    # -- rendering -----------------------------------------------------
    def render(self, profiled: bool) -> str:
        return _render(self.body, self.params, profiled)


def _render(
    body: Sequence[Tuple[int, int, str]], params: Dict[str, Any], profiled: bool
) -> str:
    """The kernel source for ``body`` lines over the defaults ``params``."""
    sig = ", ".join(f"{n}={n}" for n in params)
    out: List[str] = []
    if profiled:
        out.append(f"def _kernel_profiled(_acc, {sig}):")
        out.append("    _t = _perf()")
        cur = body[0][0] if body else -1
        for seg_id, _, code in body:
            if seg_id != cur:
                out.append(
                    f"    _n = _perf(); _acc[{cur}] += _n - _t; _t = _n"
                )
                cur = seg_id
            out.append(f"    {code}")
        if body:
            out.append(f"    _acc[{cur}] += _perf() - _t")
    else:
        out.append(f"def _kernel({sig}):")
        for _, _, code in body:
            out.append(f"    {code}")
    out.append("")
    return "\n".join(out)


def _leaf_mask(wrt: FrozenSet[int]) -> int:
    """Leaf positions as a bitmask (see
    :func:`~repro.autodiff.lowering.leaf_dependence`)."""
    return sum(1 << j for j in wrt)


def _bind(source: str, name: str, params: Dict[str, Any]):
    """Compile ``source`` and return its function ``name``.

    The function is popped out of the namespace it was defined in: left
    there, function and namespace (its ``__globals__``) form a reference
    cycle that keeps every buffer of a dropped program alive until a full
    cyclic garbage collection.
    """
    ns = dict(params)
    exec(compile(source, f"<repro-codegen:{name}>", "exec"), ns)
    return ns.pop(name)


class CodegenProgram:
    """One compiled program: a generated kernel over persistent buffers.

    ``replay(inputs, profile)`` copies new input values into the leaf
    buffers, runs the kernel, and returns the root value plus fresh
    copies of the leaf gradients; ``aux_values()`` then reads the aux
    outputs the same run computed.  The profiled kernel variant is built
    only when ``profiled`` is set.

    ``replay(..., wrt=leaves)`` runs the kernel *restricted* to a set of
    leaf positions, bound once by :meth:`restrict`: the same forward
    lines plus only the backward steps whose destination depends on one
    of those leaves (:func:`~repro.autodiff.lowering.leaf_dependence`).
    Each kept step keeps its accumulation order and arena slot, so the
    restricted kernel is a line subset of the full one over the same
    buffers: it allocates nothing, and its value, aux outputs and kept
    gradients are the full kernel's bit for bit.  The other leaves'
    gradients come back as zero arrays.
    """

    def __init__(self, lowered: LoweredProgram, profiled: bool = False) -> None:
        em = _Emitter(lowered)
        em.emit()
        em.planner.verify()  # cheap invariant check at build time

        stats = lowered.stats
        stats.arena_bytes = em.planner.total_bytes
        stats.arena_slots = len(em.planner.slots)
        self.stats = stats

        self._body = em.body
        self._params = em.params
        self._profiled = profiled
        deps = leaf_dependence(lowered)
        self._step_deps = [deps[st.dst] for st in lowered.bwd_steps]
        self._kernels: Dict[FrozenSet[int], Tuple[Any, Any]] = {}
        self._fn, self._pfn = self._bind_kernels(em.body)
        self._segments = em.segments

        self._leaf_bufs = [l.data for l in lowered.leaves]
        self._leaf_grads = [
            em.params[f"g{p}"] if p >= 0 else None for p in lowered.leaf_pos
        ]
        self._root_data = lowered.root.data
        self._aux_data = [lowered.nodes[i].node.data for i in lowered.output_pos]
        self.buffer_bytes = stats.arena_bytes + sum(
            v.nbytes for k, v in em.params.items() if k[0] in "bg"
        )

    def _bind_kernels(self, body):
        """The plain and (when profiled) profiled kernels of ``body``."""
        fn = _bind(_render(body, self._params, False), "_kernel", self._params)
        pfn = (
            _bind(
                _render(body, self._params, True), "_kernel_profiled", self._params
            )
            if self._profiled
            else None
        )
        return fn, pfn

    def n_bwd_steps(self, wrt: Optional[FrozenSet[int]] = None) -> int:
        """Backward steps the kernel restricted to ``wrt`` runs (all of
        them for ``None``)."""
        if wrt is None:
            return len(self._step_deps)
        mask = _leaf_mask(wrt)
        return sum(1 for d in self._step_deps if d & mask)

    def restricted(self, wrt: FrozenSet[int]) -> bool:
        """True once :meth:`restrict` has bound a kernel for ``wrt``."""
        return wrt in self._kernels

    def restrict(self, wrt: FrozenSet[int], full: bool = False) -> None:
        """Render and bind the kernel restricted to the leaves ``wrt``.

        With ``full`` — the fallback for a restricted kernel that failed
        validation — or when every backward step reaches ``wrt``, the
        restriction runs the full kernel (its gradients outside ``wrt``
        are still returned as zeros).
        """
        if not full:
            mask, deps = _leaf_mask(wrt), self._step_deps
            body = [l for l in self._body if l[1] < 0 or deps[l[1]] & mask]
            full = len(body) == len(self._body)
        self._kernels[wrt] = (
            (self._fn, self._pfn) if full else self._bind_kernels(body)
        )

    def replay(
        self,
        inputs: Sequence[np.ndarray],
        profile=None,
        wrt: Optional[FrozenSet[int]] = None,
    ) -> Tuple[float, List[np.ndarray]]:
        for buf, arr in zip(self._leaf_bufs, inputs):
            if buf.shape != arr.shape:
                from repro.autodiff.compile import CompileError

                raise CompileError(
                    f"input shape {arr.shape} does not match traced shape "
                    f"{buf.shape}; re-trace required"
                )
            np.copyto(buf, arr)
        fn, pfn = (self._fn, self._pfn) if wrt is None else self._kernels[wrt]
        if profile is None:
            fn()
        else:
            self._run_profiled(profile, pfn)
        grads = [
            np.zeros(buf.shape)
            if g is None or (wrt is not None and j not in wrt)
            else g.copy()
            for j, (buf, g) in enumerate(zip(self._leaf_bufs, self._leaf_grads))
        ]
        return float(self._root_data), grads

    def aux_values(self) -> Tuple[float, ...]:
        """The aux outputs' values as of the last :meth:`replay`."""
        return tuple(float(a) for a in self._aux_data)

    def _run_profiled(self, profile, pfn) -> None:
        perf = time.perf_counter
        t0 = perf()
        acc = [0.0] * len(self._segments)
        pfn(acc)
        for seg, dt in zip(self._segments, acc):
            k = profile.kernel(seg.name)
            if seg.phase == "fwd":
                k.calls += 1
                k.fwd_seconds += dt
                k.flops += seg.flops
                k.bytes_moved += seg.bytes_moved
            else:
                k.bwd_seconds += dt
        profile.n_replays += 1
        profile.replay_seconds += perf() - t0


def codegen_program(
    root, leaves, outputs=(), profiled: bool = False
) -> CodegenProgram:
    """Lower the tape ending at ``root`` and compile it to a kernel.

    ``leaves`` are the differentiated inputs whose buffers the program
    takes over; ``outputs`` are aux values it keeps (see
    :func:`~repro.autodiff.lowering.lower`), read back through
    :meth:`CodegenProgram.aux_values`.  Raises
    :class:`~repro.autodiff.lowering.LoweringError`
    (or any build error) on tapes the backend cannot express — callers
    catch and run eagerly.  Fusion/arena statistics are surfaced through
    the ``repro.obs`` metrics registry on every successful build.
    """
    cg = CodegenProgram(lower(root, leaves, outputs), profiled=profiled)

    from repro.obs.metrics import get_registry

    reg = get_registry()
    st = cg.stats
    reg.counter("codegen.programs").inc()
    reg.counter("codegen.fused_ops").inc(st.n_fused)
    reg.counter("codegen.fusion_groups").inc(st.n_fused_groups)
    reg.counter("codegen.buffers_dropped").inc(
        st.values_dropped + st.cotangents_dropped
    )
    reg.gauge("codegen.arena_bytes").set(st.arena_bytes)
    reg.gauge("codegen.fused_fraction").set(st.fused_fraction)
    return cg
