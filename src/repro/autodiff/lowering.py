"""Lowering pass: a traced tape to a small SSA-style IR, plus the
optimisation passes the codegen backend (:mod:`repro.autodiff.codegen`)
consumes.

The input is the tape of one eager trace — its root and differentiated
leaves.  :func:`lower` linearises it in topological order and converts
every recorded op into an explicit IR node, forward and backward both,
then runs three passes over it:

1. **Elementwise-chain fusion** — maximal runs of shape-compatible
   elementwise ops in the forward schedule become one *fusion group*,
   emitted by the codegen backend as a single straight-line block of
   in-place NumPy kernels (and profiled as one unit).  A change of
   output shape (broadcast mismatch) splits a chain; views and opaque
   ops are fusion barriers.
2. **Dead-buffer elimination** — a node's value buffer is dropped when
   no retained computation reads it after the forward sweep (its own VJP
   does not reference the output, no consumer's VJP references it as an
   operand, and every consumer is lowered symbolically).  The root and
   the caller's auxiliary outputs are pinned, never dropped.  Cotangents of
   all interior (non-leaf, non-root) nodes are likewise transient — the
   backward sweep writes them into arena slots, never into one
   persistent buffer per node.
3. **Arena planning** — every dropped buffer, and every scratch
   temporary the backward emitter needs, becomes a liveness interval on
   a global (forward + backward) step timeline; :class:`ArenaPlanner`
   assigns intervals to a small pool of reusable slots (greedy
   interval-graph colouring per ``(shape, dtype, layout)`` class), so the
   persistent pool holds far less than one double buffer per node.

Anything the IR cannot express symbolically — ``solve``, ``matmul`` in
stacked layouts, sparse ops, ``concatenate``/``stack``, fancy masks —
stays **opaque**: the emitted source calls straight back into the
closures the trace recorded, so a program containing non-fusible ops
still lowers (those nodes and their operands are simply pinned to their
buffers).  A tape with an op that records no forward-replay closure
cannot be lowered (:class:`LoweringError`); the caller then runs that
function on the eager tape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.autodiff.elementwise import ELEMENTWISE
from repro.autodiff.tensor import Tensor, VIEW_FWD, _topological_order

__all__ = [
    "ArenaPlanner",
    "FusionGroup",
    "IRNode",
    "LoweredProgram",
    "LoweringError",
    "REDUCTION_OPS",
    "leaf_dependence",
    "lower",
    "unbroadcast_plan",
]


class LoweringError(RuntimeError):
    """Raised when a program cannot be lowered (caller falls back)."""


#: Reductions with symbolic forward + backward (single-node groups).
REDUCTION_OPS = ("sum", "mean")

#: matmul (ndim_a, ndim_b) combinations the emitter handles in-place:
#: the 1-D/2-D solver paths plus every ``ndim >= 2`` stacked combination
#: (eager's general VJP ``unbroadcast(g @ swapaxes(B, -1, -2))`` maps
#: onto the emitter's unbroadcast plans directly).  Inner products
#: (scalar output) and 1-D-against-stacked stay opaque.
MATMUL_COMBOS = {(2, 2), (2, 1), (1, 2)}


def matmul_symbolic(na: int, nb: int) -> bool:
    """True when the emitter has an in-place kernel for this rank combo."""
    return (na, nb) in MATMUL_COMBOS or (na >= 2 and nb >= 2)


def _estimate_cost(op: str, out: np.ndarray, parents: Sequence[Any]) -> Tuple[float, float]:
    """Estimated (FLOPs, bytes moved) for one forward execution of ``op``.

    Shape-derived at lowering time, so profiling adds no per-call cost.
    Conventions: a dense matmul costs ``2·m·k·n``; a triangular-solve
    pair against an ``n×n`` factorisation costs ``2·n²``; everything else
    is counted as one FLOP per output element.  Bytes moved = output
    bytes + every parent operand's bytes (one read of each input, one
    write of the output).
    """
    shapes = [np.shape(getattr(p, "data", p)) for p in parents]
    bytes_moved = float(out.nbytes) + 8.0 * sum(
        float(math.prod(s)) for s in shapes
    )
    if op == "matmul" and len(shapes) >= 2:
        a, b = shapes[0], shapes[1]
        m = float(a[0]) if len(a) > 1 else 1.0
        k = float(a[-1]) if a else 1.0
        n = float(b[-1]) if len(b) > 1 else 1.0
        flops = 2.0 * m * k * n
    elif "solve" in op:
        n = float(out.shape[0]) if out.ndim else 1.0
        flops = 2.0 * n * n
    else:
        flops = float(out.size)
    return flops, bytes_moved


# ----------------------------------------------------------------------
# IR
# ----------------------------------------------------------------------
@dataclass
class IRNode:
    """One recorded op (or leaf) of the program, in trace order.

    ``idx`` is the node's position in the program's root-first
    topological order; ``args`` resolves each canonical operand to
    ``("node", idx)`` or ``("const", key)``; ``arg_pos[j]`` is the
    operand position parent slot ``j`` claimed.
    """

    idx: int
    op: str
    kind: str  # "leaf" | "view" | "elemwise" | "reduction" | "matmul" | "opaque"
    node: Tensor
    parents: List[int] = field(default_factory=list)
    arg_pos: List[int] = field(default_factory=list)
    args: List[Tuple[str, Any]] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    children: List[int] = field(default_factory=list)
    symbolic_fwd: bool = False
    symbolic_bwd: bool = False
    # storage decisions (filled by the DBE pass)
    value_transient: bool = False
    cot_transient: bool = False
    fwd_step: int = -1
    last_value_use: int = -1
    group: int = -1

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.node.data.shape

    @property
    def dtype(self):
        return self.node.data.dtype


@dataclass
class FusionGroup:
    """A contiguous run of the forward schedule emitted as one kernel."""

    gid: int
    kind: str  # "fused" | "reduction" | "matmul" | "opaque"
    members: List[int] = field(default_factory=list)
    shape: Tuple[int, ...] = ()
    flops: float = 0.0
    bytes_moved: float = 0.0

    def name(self, nodes: Sequence[IRNode]) -> str:
        ops = "+".join(nodes[i].op for i in self.members[:6])
        if len(self.members) > 6:
            ops += f"+{len(self.members) - 6}more"
        return f"k{self.gid}[{ops}]"


@dataclass
class BwdStep:
    """One flattened backward push: node ``src`` → parent ``dst``."""

    step: int
    src: int
    slot: int
    dst: int
    first: bool


@dataclass
class LoweredStats:
    """Summary the profiler/metrics layer surfaces."""

    n_ops: int = 0
    n_symbolic: int = 0
    n_fused: int = 0
    n_opaque: int = 0
    n_groups: int = 0
    n_fused_groups: int = 0
    values_dropped: int = 0
    cotangents_dropped: int = 0
    dropped_bytes: int = 0
    arena_bytes: int = 0
    arena_slots: int = 0
    cse_hits: int = 0

    @property
    def fused_fraction(self) -> float:
        return self.n_symbolic / self.n_ops if self.n_ops else 0.0


@dataclass
class LoweredProgram:
    """The IR + pass results handed to the codegen emitter.

    ``leaf_pos[j]`` is the node index of differentiated leaf ``j``, or -1
    when the output does not depend on it (its gradient is zero).
    ``output_pos[k]`` is the node index of aux output ``k`` (pinned).
    """

    root: Tensor
    leaves: List[Tensor]
    leaf_pos: List[int]
    output_pos: List[int]
    nodes: List[IRNode]
    fwd_schedule: List[int]
    bwd_steps: List[BwdStep]
    groups: List[FusionGroup]
    consts: Dict[int, Tuple[str, Any]]  # id(obj) -> (name, obj)
    stats: LoweredStats
    n_fwd_steps: int = 0
    # Cotangent liveness endpoints on the global step timeline.
    first_write: Dict[int, int] = field(default_factory=dict)
    last_read: Dict[int, int] = field(default_factory=dict)
    # tanh node idx -> idx of a taped ``1 - tanh^2`` the VJP can reuse.
    cse_tanh: Dict[int, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Arena planning
# ----------------------------------------------------------------------
class ArenaPlanner:
    """Liveness-interval slot allocator for transient buffers.

    Requests must arrive sorted by ``start`` (the emitter walks the step
    timeline monotonically, so this holds by construction).  A slot is
    reused once the interval occupying it has ended *strictly before*
    the new interval starts; two live intervals therefore never share a
    slot — the property test in ``tests/property`` asserts exactly this
    invariant over random interval streams.

    ``layout`` is an opaque hashable memory-layout class (``None`` for C
    order): a reduction's summation order follows its operand's memory
    layout, so a slot standing in for an eagerly computed buffer must
    share that buffer's layout for results to stay bitwise equal.
    """

    def __init__(self) -> None:
        self._free: Dict[Tuple[Any, ...], List[int]] = {}
        self._busy: List[Tuple[int, int]] = []  # heap of (end, slot)
        self.slots: List[Tuple[Tuple[int, ...], np.dtype, Any]] = []
        self.intervals: List[Tuple[int, int, int]] = []  # (slot, start, end)
        self._last_start = -1

    def alloc(
        self, shape: Tuple[int, ...], dtype: Any, start: int, end: int, layout: Any = None
    ) -> int:
        """Return a slot id for an interval ``[start, end]`` (inclusive)."""
        if start < self._last_start:
            raise LoweringError(
                f"arena requests must be start-sorted ({start} < {self._last_start})"
            )
        if end < start:
            raise LoweringError(f"empty liveness interval [{start}, {end}]")
        self._last_start = start
        key = (tuple(shape), np.dtype(dtype), layout)
        # Release every slot whose interval ended before this start.
        while self._busy and self._busy[0][0] < start:
            _, done = heapq.heappop(self._busy)
            self._free.setdefault(self.slots[done], []).append(done)
        pool = self._free.get(key)
        if pool:
            slot = pool.pop()
        else:
            slot = len(self.slots)
            self.slots.append(key)
        heapq.heappush(self._busy, (end, slot))
        self.intervals.append((slot, start, end))
        return slot

    @property
    def total_bytes(self) -> int:
        return sum(math.prod(shape) * dt.itemsize for shape, dt, _ in self.slots)

    def verify(self) -> None:
        """Assert no two intervals assigned to one slot overlap."""
        per_slot: Dict[int, List[Tuple[int, int]]] = {}
        for slot, start, end in self.intervals:
            per_slot.setdefault(slot, []).append((start, end))
        for slot, ivals in per_slot.items():
            ivals.sort()
            for (s0, e0), (s1, e1) in zip(ivals, ivals[1:]):
                if s1 <= e0:
                    raise AssertionError(
                        f"arena slot {slot}: intervals [{s0},{e0}] and "
                        f"[{s1},{e1}] overlap"
                    )


def unbroadcast_plan(
    out_shape: Tuple[int, ...], target_shape: Tuple[int, ...]
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Static sum-axes plan mirroring :func:`~repro.autodiff.tensor.unbroadcast`.

    Returns ``None`` when shapes already match (no reduction needed);
    otherwise ``(lead_axes, keep_axes)``: the leading axes broadcasting
    prepended (summed first, without keepdims) and the axes expanded
    from size one (summed second, with ``keepdims=True``), after which a
    ``reshape(target_shape)`` lands the exact target — the same three
    steps, in the same order, as the eager helper, so the reduction
    order (and hence the floating-point bits) match.
    """
    if tuple(out_shape) == tuple(target_shape):
        return None
    extra = len(out_shape) - len(target_shape)
    lead = tuple(range(extra)) if extra > 0 else ()
    mid = out_shape[extra:] if extra > 0 else out_shape
    keep = tuple(
        i for i, s in enumerate(target_shape) if s == 1 and mid[i] != 1
    )
    return lead, keep


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def _classify(ir: IRNode) -> None:
    """Fill ``kind`` / ``symbolic_fwd`` / ``symbolic_bwd`` for one node."""
    node = ir.node
    if not node._parents:
        ir.kind = "leaf"
        return
    meta = node._meta
    if node._fwd is VIEW_FWD:
        ir.kind = "view"
        ir.symbolic_bwd = meta is not None and node._op in (
            "reshape",
            "transpose",
            "getitem",
        )
        return
    op = node._op
    if meta is None:
        ir.kind = "opaque"
        return
    if op in ELEMENTWISE:
        ir.kind = "elemwise"
        ir.symbolic_fwd = True
        ir.symbolic_bwd = True
        return
    if op in REDUCTION_OPS:
        ir.kind = "reduction"
        ir.symbolic_fwd = True
        ir.symbolic_bwd = True
        return
    if op == "matmul":
        a, b = meta[0]
        if matmul_symbolic(a.ndim, b.ndim) and ir.node.data.ndim > 0:
            ir.kind = "matmul"
            ir.symbolic_fwd = True
            ir.symbolic_bwd = True
            return
        ir.kind = "opaque"
        return
    if op == "getitem":
        # Copying getitem: closure forward, symbolic scatter backward.
        ir.kind = "opaque"
        ir.symbolic_bwd = True
        return
    ir.kind = "opaque"


def _resolve_args(ir: IRNode, nodes: List[IRNode], pos: Dict[int, int], consts) -> bool:
    """Map parents/constants onto the op's canonical operand positions.

    Returns False (→ opaque) when a parent's buffer cannot be identified
    among the recorded operands, or a differentiated operand sits in a
    slot its table entry marks ``eager_only`` (``power`` exponents).
    """
    meta = ir.node._meta
    operands = meta[0] if meta else ()
    ir.params = dict(meta[1]) if meta and meta[1] else {}
    parent_data = [nodes[p].node.data for p in ir.parents]
    claimed: List[Optional[int]] = [None] * len(operands)
    ir.arg_pos = []
    for j, pdata in enumerate(parent_data):
        hit = -1
        for k, arg in enumerate(operands):
            if claimed[k] is None and arg is pdata:
                hit = k
                break
        if hit < 0:
            return False
        claimed[hit] = j
        ir.arg_pos.append(hit)
    ir.args = []
    for k, arg in enumerate(operands):
        if claimed[k] is not None:
            ir.args.append(("node", ir.parents[claimed[k]]))
        else:
            key = id(arg)
            if key not in consts:
                consts[key] = (f"c{len(consts)}", arg)
            ir.args.append(("const", key))
    entry = ELEMENTWISE.get(ir.op)
    if entry is not None and any(p in entry.eager_only for p in ir.arg_pos):
        return False  # e.g. a ``power`` exponent on the tape
    return True


def lower(
    root: Tensor, leaves: Sequence[Tensor], outputs: Sequence[Any] = ()
) -> LoweredProgram:
    """Build the IR of the tape ending at ``root``, run fusion + DBE, and
    compute liveness intervals.

    ``leaves`` are the differentiated inputs, in argument order.
    ``outputs`` are auxiliary values the caller reads after each run
    (``has_aux``): each must be a node of ``root``'s tape — anything else
    would keep its trace-time value forever, so it raises
    :class:`LoweringError` — and each is pinned like the root: dead-buffer
    elimination keeps its value buffer, so no arena slot stands in for
    it.  Arena *slot assignment* happens in the emitter (requests must be
    step-sorted and include backward scratch temporaries); this pass
    decides *which* buffers are transient and their liveness endpoints.
    """
    order = _topological_order(root)  # root first, leaves last
    for n in order:
        if n._parents and n._fwd is None:
            raise LoweringError(
                f"op {n._op!r} records no forward-replay closure"
            )
    pos = {id(n): i for i, n in enumerate(order)}
    output_pos = []
    for k, out in enumerate(outputs):
        if not isinstance(out, Tensor) or id(out) not in pos:
            raise LoweringError(
                f"aux output {k} is not on the root's tape; a compiled "
                "program could only return its trace-time value"
            )
        output_pos.append(pos[id(out)])
    pinned = {0, *output_pos}
    consts: Dict[int, Tuple[str, Any]] = {}

    nodes: List[IRNode] = []
    for i, n in enumerate(order):
        ir = IRNode(idx=i, op=n._op, kind="opaque", node=n)
        ir.parents = [pos[id(p)] for p, _ in n._parents]
        _classify(ir)
        nodes.append(ir)
    for ir in nodes:
        for p in ir.parents:
            nodes[p].children.append(ir.idx)

    # Resolve operands; demote to opaque when identification fails.
    for ir in nodes:
        if ir.kind in ("elemwise", "reduction", "matmul") or (
            ir.kind in ("view", "opaque") and ir.symbolic_bwd
        ):
            if not _resolve_args(ir, nodes, pos, consts):
                ir.kind = "opaque" if ir.kind != "view" else "view"
                ir.symbolic_fwd = False
                ir.symbolic_bwd = False

    # ------------------------------------------------------------------
    # Forward schedule + elementwise-chain fusion (views are barriers)
    # ------------------------------------------------------------------
    fwd_schedule: List[int] = []
    groups: List[FusionGroup] = []
    open_group: Optional[FusionGroup] = None
    step = 0

    def close():
        nonlocal open_group
        open_group = None

    for n in reversed(order):  # leaves first = execution order
        ir = nodes[pos[id(n)]]
        if ir.kind == "leaf":
            continue
        if ir.kind == "view":
            close()  # views are fusion barriers (alias, no kernel)
            continue
        flops, moved = _estimate_cost(
            ir.op, ir.node.data, [p for p, _ in n._parents]
        )
        if ir.kind == "elemwise":
            if open_group is None or open_group.shape != ir.shape:
                close()
                open_group = FusionGroup(
                    gid=len(groups), kind="fused", shape=ir.shape
                )
                groups.append(open_group)
            g = open_group
        else:
            close()
            g = FusionGroup(gid=len(groups), kind=ir.kind, shape=ir.shape)
            groups.append(g)
        g.members.append(ir.idx)
        g.flops += flops
        g.bytes_moved += moved
        ir.group = g.gid
        ir.fwd_step = step
        fwd_schedule.append(ir.idx)
        step += 1
    n_fwd = step

    # ------------------------------------------------------------------
    # Backward schedule: the eager ``Tensor.backward`` visit order, so
    # accumulation order (and hence floating-point bits) match eager.
    # Every node is reachable from the root, so which write into a
    # cotangent comes first is static.
    # ------------------------------------------------------------------
    bwd_steps: List[BwdStep] = []
    initialised: Set[int] = {0}
    for i, n in enumerate(order):
        for slot, (p, _) in enumerate(n._parents):
            pi = pos[id(p)]
            first = pi not in initialised
            initialised.add(pi)
            bwd_steps.append(
                BwdStep(step=n_fwd + len(bwd_steps), src=i, slot=slot, dst=pi, first=first)
            )

    # ------------------------------------------------------------------
    # Dead-buffer elimination
    # ------------------------------------------------------------------
    # Value buffers: drop when nothing after the forward sweep reads them.
    needed_in_bwd: Set[int] = set()
    for ir in nodes:
        if not ir.symbolic_bwd:
            continue
        entry = ELEMENTWISE.get(ir.op)
        if entry is not None and entry.reads_out and ir.parents:
            needed_in_bwd.add(ir.idx)
        read_positions: Set[int] = set()
        if ir.kind == "matmul":
            read_positions = {0, 1}
        elif entry is not None:
            for j in range(len(ir.parents)):
                read_positions.update(entry.reads_args[ir.arg_pos[j]])
        for k in read_positions:
            kind, ref = ir.args[k]
            if kind == "node":
                needed_in_bwd.add(ref)

    # Forward→backward CSE: the tanh VJP recomputes ``1 - o*o``, but the
    # PINN derivative propagation already tapes exactly that chain
    # (``sub(1.0, square(tanh))``) in the forward pass.  Reusing the
    # stored value is bitwise-identical — the forward ran the same ufuncs
    # on the same inputs the VJP would (``np.multiply(o, o)`` then
    # ``np.subtract(1.0, .)``) — and turns a three-kernel backward chain
    # into a single multiply.  The reused buffer is pinned so DBE keeps it.
    cse_tanh: Dict[int, int] = {}
    for ir in nodes:
        if ir.op != "sub" or ir.kind != "elemwise" or not ir.symbolic_fwd:
            continue
        if len(ir.args) != 2 or ir.args[0][0] != "const" or ir.args[1][0] != "node":
            continue
        cval = consts[ir.args[0][1]][1]
        if np.ndim(cval) != 0 or not isinstance(
            cval, (int, float, np.floating, np.integer, np.ndarray)
        ) or float(cval) != 1.0:
            continue
        q = nodes[ir.args[1][1]]
        if (
            q.op != "square"
            or q.kind != "elemwise"
            or not q.args
            or q.args[0][0] != "node"
        ):
            continue
        t = q.args[0][1]
        if (
            nodes[t].op == "tanh"
            and nodes[t].symbolic_bwd
            and ir.shape == nodes[t].shape
        ):
            cse_tanh.setdefault(t, ir.idx)
            needed_in_bwd.add(ir.idx)

    leafset = {i for i, ir in enumerate(nodes) if ir.kind == "leaf"}
    for ir in nodes:
        if (
            ir.kind == "elemwise"
            and ir.idx not in pinned
            and ir.idx not in needed_in_bwd
            and ir.children
            and all(
                nodes[c].symbolic_fwd and nodes[c].kind != "view"
                for c in ir.children
            )
        ):
            ir.value_transient = True
            ir.last_value_use = max(nodes[c].fwd_step for c in ir.children)

    # Cotangent buffers: every interior node's cotangent lives only
    # between its first backward write and its last backward read.
    first_write: Dict[int, int] = {}
    last_read: Dict[int, int] = {}
    for s in bwd_steps:
        first_write.setdefault(s.dst, s.step)
        last_read[s.src] = s.step
    for ir in nodes:
        if ir.idx == 0 or ir.idx in leafset:
            continue
        if ir.idx in first_write and ir.idx in last_read:
            ir.cot_transient = True

    stats = LoweredStats()
    stats.n_ops = len(fwd_schedule)
    stats.n_symbolic = sum(1 for i in fwd_schedule if nodes[i].symbolic_fwd)
    stats.n_opaque = stats.n_ops - stats.n_symbolic
    stats.n_groups = len(groups)
    stats.n_fused_groups = sum(1 for g in groups if g.kind == "fused")
    stats.n_fused = sum(len(g.members) for g in groups if g.kind == "fused")
    stats.values_dropped = sum(1 for ir in nodes if ir.value_transient)
    stats.cotangents_dropped = sum(1 for ir in nodes if ir.cot_transient)
    stats.dropped_bytes = sum(
        ir.node.data.nbytes
        for ir in nodes
        if ir.value_transient
    ) + sum(ir.node.data.nbytes for ir in nodes if ir.cot_transient)
    stats.cse_hits = len(cse_tanh)

    return LoweredProgram(
        root=root,
        leaves=list(leaves),
        leaf_pos=[pos.get(id(l), -1) for l in leaves],
        output_pos=output_pos,
        nodes=nodes,
        fwd_schedule=fwd_schedule,
        bwd_steps=bwd_steps,
        groups=groups,
        consts=consts,
        stats=stats,
        n_fwd_steps=n_fwd,
        first_write=first_write,
        last_read=last_read,
        cse_tanh=cse_tanh,
    )


def leaf_dependence(lw: LoweredProgram) -> List[int]:
    """Per node, the bitmask of the differentiated leaves it depends on.

    Bit ``j`` of entry ``i`` is set when node ``i`` reads leaf ``j`` of
    ``lw.leaves``, directly or through its operands.  A backward step
    whose destination's mask misses every requested leaf cannot reach
    their gradients; since every consumer of a node inherits its mask,
    the steps that remain write each kept cotangent exactly as before.
    """
    deps = [0] * len(lw.nodes)
    for j, p in enumerate(lw.leaf_pos):
        if p >= 0:
            deps[p] |= 1 << j
    for ir in reversed(lw.nodes):  # operands before their consumers
        for p in ir.parents:
            deps[ir.idx] |= deps[p]
    return deps
