"""The in-process workloads: NS-DP, NS-DAL and the Laplace PINN search.

Each workload builds its inputs from the seed, builds the program's
problem and oracle (set-up), and then runs *units*: one complete
optimisation (60 Adam iterations) or one complete two-step ω line
search.  A unit returns its wall time, the latency of each of its steps
and what the program returned; the workload's ``judge`` prices that
result (the cost J of the returned control) once all timing is over, so
that no check the benchmark makes runs inside a timed or traced window.

The optimisation loops are driven through the public
``repro.control.loop.optimize(..., c0=..., callback=...)`` and
``repro.control.pinn.omega_line_search`` rather than through
``repro.bench.harness``, whose runners always run under ``tracemalloc``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.control import loop
from repro.control import pinn as pinn_mod
from repro.control.dal import NavierStokesDAL
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.nn.optimizers import Adam
from repro.pde.laplace import LaplaceControlProblem
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig

from tracer import Patch

#: J of the control each workload returns at ``--seed 0`` (full size).
#: A run at seed 0 must reproduce it to ``REFERENCE_RTOL``.
REFERENCE_J_SEED0: Dict[str, float] = {
    "ns_dp": 0.001512488545058837,
    "ns_dal": 0.017019470341989227,
    "laplace_pinn": 0.6173138377417603,
}
REFERENCE_RTOL = 1e-6

#: Directional DP derivative vs central FD of the cost, at the seeded c0.
DP_FD_RTOL = 1e-5

Check = Tuple[str, bool, str]


@dataclass
class Unit:
    """One complete optimisation run or ω search.

    ``result`` is what the program returned (the optimisation history or
    the line-search result).
    """

    seconds: float
    steps_ms: List[float]
    n_steps: int
    result: Any


class NSWorkload:
    """Channel 21×11 (231 nodes) at Re = 100, Adam lr 0.1.

    The seed perturbs the starting control ``c0`` by 1 % of the
    Poiseuille inflow, node by node.
    """

    name = ""
    lr = 0.1

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.iterations = 3 if quick else 60
        rng = np.random.default_rng(seed)
        self.problem = ChannelFlowProblem(
            cloud=ChannelCloud(21, 11), perturbation=0.3
        )
        p = self.problem.default_control()
        self.c0 = p + 0.01 * p * rng.standard_normal(p.size)
        d = rng.standard_normal(p.size)
        self.direction = d / np.linalg.norm(d)
        self.oracle = self.make_oracle()
        self.oracle.value_and_grad(self.c0)  # warm-up
        self.j0 = float(self.oracle.value(self.c0))

    def make_oracle(self):
        raise NotImplementedError

    def run_unit(self) -> Unit:
        stamps: List[float] = []

        def on_iteration(it: int, c: np.ndarray, j: float) -> None:
            stamps.append(time.perf_counter())

        t0 = time.perf_counter()
        _, hist = loop.optimize(
            self.oracle, self.iterations, self.lr, c0=self.c0,
            callback=on_iteration,
        )
        seconds = time.perf_counter() - t0
        # Deltas between callbacks: the first iteration has none.
        steps = (np.diff(stamps) * 1e3).tolist()
        return Unit(seconds, steps, len(stamps), hist)

    def judge(self, hist) -> Tuple[float, List[Check]]:
        """J of the returned control and the unit's own checks."""
        j = float(hist.best_cost)
        return j, [("final J finite and below J(c0)",
                    bool(np.isfinite(j) and j < self.j0),
                    f"J={j!r} J(c0)={self.j0!r}")]

    def grad_fd_relerr(self) -> Dict[str, float]:
        """Directional derivative of both gradient oracles vs central FD."""
        dp = NavierStokesDP(self.problem, NSConfig(refinements=10))
        dal = NavierStokesDAL(
            self.problem, NSConfig(refinements=3), adjoint_refinements=30
        )
        return {
            "dp": _fd_relerr(dp, self.c0, self.direction),
            "dal": _fd_relerr(dal, self.c0, self.direction),
        }


def _fd_relerr(oracle, c: np.ndarray, d: np.ndarray, h: float = 1e-6) -> float:
    _, g = oracle.value_and_grad(c)
    fd = (oracle.value(c + h * d) - oracle.value(c - h * d)) / (2.0 * h)
    return abs(float(g @ d) - fd) / max(abs(fd), 1e-300)


class NSDP(NSWorkload):
    """DP, eager, dense backend, k = 10 refinements."""

    name = "ns_dp"

    def make_oracle(self):
        return NavierStokesDP(self.problem, NSConfig(refinements=10))


class NSDAL(NSWorkload):
    """DAL, k = 3 refinements, 30 adjoint refinements."""

    name = "ns_dal"

    def make_oracle(self):
        return NavierStokesDAL(
            self.problem, NSConfig(refinements=3), adjoint_refinements=30
        )


class LaplacePINNSearch:
    """Laplace 26×26, two-step ω search over {0.1, 1.0}, serial, compiled.

    200 epochs per step; the seed is the training seed.  J is the cost
    of the returned control under the RBF reference solver.

    At 200 epochs that J is still close to the zero control's, and for
    some seeds above it, so "below J(c0)" is checked on the objective the
    search minimises: every step-1 training loss must end below where it
    started.
    """

    name = "laplace_pinn"
    omegas = (0.1, 1.0)

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.problem = LaplaceControlProblem(SquareCloud(26))
        self.config = pinn_mod.PINNTrainConfig(
            epochs=5 if quick else 200, lr=2e-3, seed=seed,
            n_interior=300, n_boundary=30, compile=True,
        )
        self.pinn = pinn_mod.LaplacePINN(
            self.problem, state_hidden=(30, 30, 30), config=self.config
        )
        self.reference = LaplaceDP(self.problem)
        # Warm-up: a 2-epoch search runs every lazy import and code path.
        warm = pinn_mod.PINNTrainConfig(
            epochs=2, lr=2e-3, seed=seed, n_interior=300, n_boundary=30,
            compile=True,
        )
        pinn_mod.omega_line_search(self.pinn, self.omegas, warm, warm, jobs=1)

    def run_unit(self) -> Unit:
        """One search; a step is one step-1 (``train_pair``) epoch.

        Step-2 epochs train a smaller loss and are about half as long;
        pooling both kinds would put the median on the jump between them.
        """
        clock = _EpochClock()
        with Patch() as patch:
            clock.install(patch)
            t0 = time.perf_counter()
            ls = pinn_mod.omega_line_search(self.pinn, self.omegas, jobs=1)
            seconds = time.perf_counter() - t0
        n_epochs = 2 * len(self.omegas) * self.config.epochs
        return Unit(seconds, clock.steps_ms, n_epochs, ls)

    def judge(self, ls) -> Tuple[float, List[Check]]:
        """J of the returned control (RBF reference solver) and the
        unit's own checks."""
        j = float(self.reference.value(self.pinn.control_values(ls.params_c)))
        checks = [("final J finite", bool(np.isfinite(j)), f"J={j!r}")]
        for run in ls.step1:
            first, last = run.loss_history[0], run.loss_history[-1]
            checks.append((
                f"omega={run.omega:g}: step-1 loss ends below its start",
                bool(np.isfinite(last) and last < first),
                f"loss {first!r} -> {last!r}",
            ))
        return j, checks


class _EpochClock:
    """Times between successive Adam steps inside one ``train_pair``."""

    def __init__(self) -> None:
        self.steps_ms: List[float] = []
        self._last = None
        self._inside = False

    def install(self, patch: Patch) -> None:
        def wrap_train(fn):
            def train_pair(*args, **kwargs):
                self._inside, self._last = True, None
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._inside = False

            return train_pair

        def wrap_step(fn):
            def step(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self._inside:
                    now = time.perf_counter()
                    if self._last is not None:
                        self.steps_ms.append((now - self._last) * 1e3)
                    self._last = now
                return out

            return step

        patch.wrap(pinn_mod.LaplacePINN, "train_pair", wrap_train)
        patch.wrap(Adam, "step", wrap_step)


WORKLOADS = {cls.name: cls for cls in (NSDP, NSDAL, LaplacePINNSearch)}


def unit_gates(workload, seed: int, quick: bool,
               units: List[Unit]) -> List[Check]:
    """(check, ok, detail) for every unit of one run.

    Call it only after every timed, traced and memory-probed unit has
    run.  Besides each unit's own checks: every unit starts from the same
    inputs, so its J must repeat the first unit's, and at seed 0 the J
    must match the stored reference.
    """
    gates = []
    first = None
    for i, u in enumerate(units):
        j, checks = workload.judge(u.result)
        if first is None:
            first = j
        gates += [(f"unit {i}: {check}", ok, detail)
                  for check, ok, detail in checks]
        gates.append((
            f"unit {i}: J repeats the first unit's",
            abs(j - first) <= 1e-9 * abs(first),
            f"J={j!r} first={first!r}",
        ))
    if seed == 0 and not quick:
        ref = REFERENCE_J_SEED0[workload.name]
        gates.append((
            "seed-0 J matches the reference",
            abs(first - ref) <= REFERENCE_RTOL * abs(ref),
            f"J={first!r} reference={ref!r}",
        ))
    return gates
