"""One description of a run, shared by the bench, the service and the goldens.

A :class:`RunSpec` holds every value that decides what a run computes:
the problem (family, cloud size, operator backend, linear solver, the
Navier–Stokes physics) and the method (oracle, iteration budget,
learning rate, PINN architecture and ω values).  :func:`build_problem`
and :func:`build_oracle` turn a spec into the objects the control loop
drives; they are the only place the bench harness, the serving worker
and the golden-trace configs construct problems and oracles, so the
three cannot drift apart silently.

Problem and oracle are built separately: one assembled problem (and its
factorisation) is shared across several oracles by the bench CLI and by
the serving worker's caches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.control.dal import LaplaceDAL, NavierStokesDAL
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.fd import FiniteDifferenceOracle
from repro.control.pinn import LaplacePINN, NavierStokesPINN, PINNTrainConfig
from repro.pde.laplace import LaplaceControlProblem
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig

__all__ = ["RunSpec", "build_oracle", "build_problem"]


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """Every value one run passes to a problem or oracle constructor.

    Defaults are the constructors' own (the Laplace PINN's for
    ``hidden``); ``omegas`` defaults to the paper's Laplace ω*.
    """

    family: str                  # "laplace" | "ns"
    method: str                  # "dp" | "dal" | "fd" | "pinn"
    nx: int
    ny: int = 0                  # ns only
    backend: str = "dense"       # "dense" (global collocation) | "local"
    solver: str = "direct"       # "direct" (LU) | "iterative" (Krylov)
    compile: bool = True         # DP oracle / PINN training tier
    iterations: int              # optimiser iterations, or PINN epochs
    lr: float
    # Navier–Stokes
    reynolds: float = 100.0
    refinements: int = 10        # the paper's k
    pseudo_dt: float = 0.5
    adjoint_refinements: Optional[int] = None  # DAL; None: the oracle's rule
    perturbation: float = 0.3
    # PINN
    hidden: Tuple[int, ...] = (30, 30, 30)
    omegas: Tuple[float, ...] = (1e-1,)
    n_interior: int = 400
    n_boundary: int = 40

    @property
    def problem_name(self) -> str:
        """The problem's name in trace metadata and ``ControlResult``."""
        return "laplace" if self.family == "laplace" else "navier-stokes"

    @property
    def ns_config(self) -> NSConfig:
        return NSConfig(reynolds=self.reynolds, refinements=self.refinements,
                        pseudo_dt=self.pseudo_dt)


def build_problem(spec: RunSpec):
    """The assembled problem a spec describes."""
    if spec.family == "laplace":
        return LaplaceControlProblem(SquareCloud(spec.nx), backend=spec.backend,
                                     solver=spec.solver)
    if spec.family == "ns":
        return ChannelFlowProblem(
            cloud=ChannelCloud(spec.nx, spec.ny),
            perturbation=spec.perturbation,
            backend=spec.backend,
            solver=spec.solver,
        )
    raise ValueError(f"unknown family {spec.family!r}")


def build_oracle(spec: RunSpec, problem):
    """The spec's method on ``problem``: a cost oracle, or a PINN.

    FD wraps the eager DP oracle's forward cost; a PINN is returned
    untrained, ready for :func:`~repro.control.pinn.omega_line_search`
    or ``train_pair``.
    """
    laplace = spec.family == "laplace"
    if spec.method == "dp":
        if laplace:
            return LaplaceDP(problem, compile=spec.compile)
        return NavierStokesDP(problem, spec.ns_config, compile=spec.compile)
    if spec.method == "dal":
        if laplace:
            return LaplaceDAL(problem)
        return NavierStokesDAL(problem, spec.ns_config,
                               adjoint_refinements=spec.adjoint_refinements)
    if spec.method == "fd":
        dp = build_oracle(replace(spec, method="dp", compile=False), problem)
        return FiniteDifferenceOracle(dp.value, dp.initial_control())
    if spec.method == "pinn":
        config = PINNTrainConfig(
            epochs=spec.iterations, lr=spec.lr, n_interior=spec.n_interior,
            n_boundary=spec.n_boundary, compile=spec.compile,
        )
        if laplace:
            return LaplacePINN(problem, state_hidden=spec.hidden, config=config)
        return NavierStokesPINN(problem, ns_config=spec.ns_config,
                                state_hidden=spec.hidden, config=config)
    raise ValueError(f"unknown method {spec.method!r}")
