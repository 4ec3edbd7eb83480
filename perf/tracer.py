"""Layer timing from outside the program: wrappers around public calls.

The benchmark attributes time to layers without touching the program:
:class:`Patch` swaps a public function or method for a wrapper and later
puts the original object back, and :class:`Tracer` uses it to record one
span per call.  A span's *self* time is its duration minus the time
covered by the spans it caused (its children), so the self times of a
run's spans add up to the time spent inside its outermost span.

``LAYERS`` names the calls wrapped in a traced run.  A name wrapped
twice (``LUSolver.__call__`` and ``LUSolver.solve_numpy``) pools both
calls under one layer.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, layer name) for every wrapped call.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.control.loop", "optimize", "control.optimize"),
    ("repro.control.pinn", "omega_line_search", "control.pinn.omega_line_search"),
    ("repro.control.dp", "NavierStokesDP.value_and_grad", "control.value_and_grad"),
    ("repro.control.dal", "NavierStokesDAL.value_and_grad", "control.value_and_grad"),
    ("repro.control.dal", "NavierStokesDAL.solve_adjoint", "control.dal.solve_adjoint"),
    ("repro.pde.navier_stokes", "ChannelFlowProblem.solve", "pde.solve"),
    ("repro.pde.navier_stokes", "ChannelFlowProblem.solve_ad", "pde.solve_ad"),
    ("repro.pde.navier_stokes", "ChannelFlowProblem.momentum_matrix_ad",
     "pde.momentum_matrix_ad"),
    ("repro.pde.navier_stokes", "ChannelFlowProblem.cost_ad", "pde.cost_ad"),
    # The name the NS module imported, so only its dense momentum solves
    # count (not every ``linalg.solve`` on the tape).
    ("repro.pde.navier_stokes", "ad_solve", "autodiff.solve"),
    ("repro.autodiff.tensor", "Tensor.backward", "autodiff.backward"),
    ("repro.autodiff.linalg", "LUSolver.__call__", "autodiff.lu_solver"),
    ("repro.autodiff.linalg", "LUSolver.solve_numpy", "autodiff.lu_solver"),
    ("repro.control.pinn", "LaplacePINN.train_pair", "control.pinn.train_pair"),
    ("repro.control.pinn", "LaplacePINN.retrain_state", "control.pinn.retrain_state"),
    ("repro.control.pinn", "LaplacePINN.evaluate_cost", "control.pinn.evaluate_cost"),
    ("repro.nn.optimizers", "Adam.step", "nn.adam_step"),
)

#: The factory whose returned callables are traced as one layer.
COMPILED_FACTORY = ("repro.autodiff.compile", "compiled_value_and_grad_tree")
COMPILED_LAYER = "autodiff.compiled_vg"

#: Calls whose peak traced memory the memory pass records.
MEMORY_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.control.dp", "NavierStokesDP.value_and_grad", "control.value_and_grad"),
    ("repro.control.dal", "NavierStokesDAL.value_and_grad", "control.value_and_grad"),
    ("repro.pde.navier_stokes", "ChannelFlowProblem.solve_ad", "pde.solve_ad"),
)


def resolve(module: str, path: str) -> Tuple[Any, str]:
    """``("pkg.mod", "Cls.meth")`` -> ``(Cls, "meth")``: the owner to patch."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patch:
    """Replace attributes with wrappers; :meth:`restore` undoes every one.

    The original is read from the owner's own ``__dict__`` so that
    restoring puts back the identical object (for a class, the plain
    function, not a bound method).  An attribute the owner inherited is
    deleted again on restore, re-exposing the inherited one.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def wrap(self, owner: Any, attr: str,
             make_wrapper: Callable[[Callable], Callable]) -> None:
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)) or not callable(original):
            raise TypeError(f"cannot wrap {owner!r}.{attr}: not a plain callable")
        setattr(owner, attr, make_wrapper(original))
        self._saved.append((owner, attr, had_own, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


@dataclass
class SpanStats:
    """Totals for one layer name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


class Tracer:
    """Per-layer call counts, inclusive and self times.

    Spans nest per thread.  ``keep_durations`` names the layers whose
    individual call durations are kept for percentiles.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_durations: Tuple[str, ...] = ()) -> None:
        self.clock = clock
        self.keep_durations = frozenset(keep_durations)
        self.stats: Dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patch = Patch()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records one span ``name``."""
        stats = self.stats.setdefault(name, SpanStats())
        keep = name in self.keep_durations
        clock = self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [clock(), 0.0]  # start, time covered by children
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    stats.calls += 1
                    stats.total_s += duration
                    stats.self_s += duration - frame[1]
                    if keep:
                        stats.durations.append(duration)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every ``(module, path, name)`` in ``LAYERS``."""
        for module, path, name in LAYERS:
            owner, attr = resolve(module, path)
            self._patch.wrap(owner, attr, lambda fn, name=name: self.timed(name, fn))

    def install_factory(self, module: str, attr: str, name: str) -> "CompiledCalls":
        """Trace every callable the factory ``module.attr`` returns.

        Each returned callable becomes one span ``name``; the first call
        of each (its trace) is kept apart, and the originals are kept so
        their ``cache_info()`` can be read afterwards.
        """
        calls = CompiledCalls()
        first = name + ".first"

        def make_factory(factory: Callable) -> Callable:
            def traced_factory(*args: Any, **kwargs: Any) -> Callable:
                inner = factory(*args, **kwargs)
                calls.inner.append(inner)
                timed_first = self.timed(first, inner)
                timed_rest = self.timed(name, inner)
                state = {"called": False}

                def call(*a: Any, **k: Any) -> Any:
                    if state["called"]:
                        return timed_rest(*a, **k)
                    state["called"] = True
                    return timed_first(*a, **k)

                call.cache_info = inner.cache_info
                return call

            return traced_factory

        owner, attr_name = resolve(module, attr)
        self._patch.wrap(owner, attr_name, make_factory)
        return calls

    def uninstall(self) -> None:
        self._patch.restore()

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(s.self_s for s in self.stats.values())

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()


@dataclass
class CompiledCalls:
    """The compiled callables created while a factory was traced."""

    inner: List[Any] = field(default_factory=list)

    def cache_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for fn in self.inner:
            for key, value in fn.cache_info().items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        return totals


class MemoryProbe:
    """Peak traced memory inside selected calls (for the memory pass).

    Each call runs under a nested :class:`repro.utils.timers.PeakMemory`,
    which resets the ``tracemalloc`` peak for the call and credits the
    peak seen so far to the enclosing manager, so the run-level peak is
    unaffected.
    """

    def __init__(self) -> None:
        self.peak_bytes: Dict[str, int] = {}
        self._patch = Patch()

    def install(self) -> None:
        from repro.utils.timers import PeakMemory

        for module, path, name in MEMORY_LAYERS:
            owner, attr = resolve(module, path)

            def make(fn: Callable, name: str = name) -> Callable:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    with PeakMemory() as pm:
                        out = fn(*args, **kwargs)
                    self.peak_bytes[name] = max(
                        self.peak_bytes.get(name, 0), pm.peak_bytes
                    )
                    return out

                wrapper.__wrapped__ = fn
                return wrapper

            self._patch.wrap(owner, attr, make)

    def uninstall(self) -> None:
        self._patch.restore()
