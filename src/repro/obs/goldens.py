"""Tier-0 golden-trace configs: tiny, deterministic, seconds-fast runs.

Each config pins every knob of one method × problem at a scale small
enough for CI yet large enough that the convergence *shape* (the thing
the golden tests protect) is non-trivial.  The runs are fully
deterministic — the DP/DAL paths contain no randomness, and the initial
controls are the problems' canonical ones — so two runs of the same
config on the same build differ only in timings, which the comparator
excludes.

Baselines live in ``tests/goldens/<name>.jsonl`` and are reblessed with
``pytest --regen-goldens`` (see ``tests/obs/test_goldens.py``) or
``python -m repro.obs record <name> --out tests/goldens/<name>.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.obs.hooks import record_oracle_telemetry
from repro.obs.recorder import TraceRecorder


@dataclass(frozen=True)
class Tier0Config:
    """One golden run: problem, method, and every relevant knob."""

    name: str
    problem: str  # "laplace" | "navier-stokes"
    method: str  # "dp" | "dal"
    iterations: int
    lr: float
    nx: int = 10
    ny: int = 7  # navier-stokes only
    refinements: int = 3  # navier-stokes only
    adjoint_refinements: int = 12  # navier-stokes DAL only
    reynolds: float = 100.0  # navier-stokes only
    perturbation: float = 0.3  # navier-stokes only
    backend: str = "dense"
    compile: bool = False


TIER0: Dict[str, Tier0Config] = {
    c.name: c
    for c in (
        Tier0Config(
            name="laplace_dp_tier0",
            problem="laplace",
            method="dp",
            nx=10,
            iterations=25,
            lr=1e-2,
        ),
        Tier0Config(
            name="laplace_dal_tier0",
            problem="laplace",
            method="dal",
            nx=10,
            iterations=25,
            lr=1e-2,
        ),
        Tier0Config(
            name="ns_dp_tier0",
            problem="navier-stokes",
            method="dp",
            nx=13,
            ny=7,
            iterations=8,
            lr=1e-1,
            refinements=3,
        ),
    )
}


def _build_oracle(cfg: Tier0Config):
    # Imports deferred: building the control stack is heavy and the
    # schema/compare half of ``repro.obs`` must stay import-light.
    if cfg.problem == "laplace":
        from repro.cloud.square import SquareCloud
        from repro.control.dal import LaplaceDAL
        from repro.control.dp import LaplaceDP
        from repro.pde.laplace import LaplaceControlProblem

        problem = LaplaceControlProblem(SquareCloud(cfg.nx), backend=cfg.backend)
        if cfg.method == "dp":
            return LaplaceDP(problem, compile=cfg.compile)
        if cfg.method == "dal":
            return LaplaceDAL(problem)
    elif cfg.problem == "navier-stokes":
        from repro.cloud.channel import ChannelCloud
        from repro.control.dal import NavierStokesDAL
        from repro.control.dp import NavierStokesDP
        from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig

        problem = ChannelFlowProblem(
            cloud=ChannelCloud(cfg.nx, cfg.ny),
            perturbation=cfg.perturbation,
            backend=cfg.backend,
        )
        ns_cfg = NSConfig(reynolds=cfg.reynolds, refinements=cfg.refinements)
        if cfg.method == "dp":
            return NavierStokesDP(problem, ns_cfg, compile=cfg.compile)
        if cfg.method == "dal":
            return NavierStokesDAL(
                problem, ns_cfg, adjoint_refinements=cfg.adjoint_refinements
            )
    raise ValueError(f"unknown tier-0 combination: {cfg.problem}/{cfg.method}")


def run_tier0(
    name_or_config,
    recorder: Optional[TraceRecorder] = None,
    **overrides,
) -> TraceRecorder:
    """Run one tier-0 config under telemetry and return its trace.

    ``overrides`` replace config fields (``run_tier0("laplace_dp_tier0",
    lr=2e-2)``) — the injected-regression tests use this to verify the
    comparator actually catches a changed trajectory.
    """
    from repro.control.loop import optimize

    if isinstance(name_or_config, Tier0Config):
        cfg = name_or_config
    else:
        try:
            cfg = TIER0[name_or_config]
        except KeyError:
            raise KeyError(
                f"unknown tier-0 config {name_or_config!r}; "
                f"available: {sorted(TIER0)}"
            ) from None
    if overrides:
        cfg = replace(cfg, **overrides)

    rec = recorder if recorder is not None else TraceRecorder()
    rec.set_meta(
        config=cfg.name,
        method=cfg.method.upper(),
        problem=cfg.problem,
        backend=cfg.backend,
    )
    oracle = _build_oracle(cfg)
    if hasattr(oracle, "recorder"):
        oracle.recorder = rec
    optimize(oracle, cfg.iterations, cfg.lr, recorder=rec)
    record_oracle_telemetry(rec, oracle)
    return rec
