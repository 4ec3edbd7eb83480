"""Scaled experiment configurations.

The paper's full runs take hours (Table 3: up to 26.8 h for the NS PINN
on an RTX 3090).  The benchmark suite therefore runs a *scaled* tier by
default — small enough for seconds-per-benchmark on one CPU core, large
enough that every qualitative comparison (who wins, failure modes,
crossovers) still manifests — and a ``full`` tier selected with
``REPRO_FULL=1`` that moves every knob towards the paper's values.

Paper values, for reference:

=====================  =========  =========  =========
hyperparameter         DAL        PINN       DP
=====================  =========  =========  =========
Laplace lr             1e-2       1e-3       1e-2
Laplace iters/epochs   500        20k        500
Laplace cloud          100×100    100×100    100×100
NS lr                  1e-1       1e-3       1e-1
NS iters/epochs        350        100k       350
NS refinements k       3          —          10
NS cloud               1385       1385       1385
=====================  =========  =========  =========
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Tuple

from repro.utils.env import env_flag


def is_full_scale() -> bool:
    """True when the ``REPRO_FULL`` environment switch is set.

    Parsed by :func:`repro.utils.env.env_flag`: ``1``/``true``/``yes``/
    ``on`` enable, ``0``/``false``/``no``/``off`` disable (case- and
    whitespace-insensitive), anything else raises.
    """
    return env_flag("REPRO_FULL", default=False)


def is_compile_enabled() -> bool:
    """The ``REPRO_COMPILE`` switch, parsed by
    :func:`repro.utils.env.env_flag` like every other switch.

    Nothing in the package reads it: the compiled execution tier
    (:mod:`repro.autodiff.compile`) is every DP oracle's and PINN's
    default, so the benchmarks run it without a switch.
    """
    return env_flag("REPRO_COMPILE", default=False)


def artifact_dir(cli_value: "str | None", env_var: str) -> "str | None":
    """Resolve an artifact output directory from CLI flag and environment.

    Precedence: an explicit CLI value (``--trace-dir`` / ``--profile-dir``)
    always wins; otherwise the environment variable is consulted; empty or
    whitespace-only values in either place mean "disabled" and resolve to
    ``None``.
    """
    if cli_value is not None:
        return cli_value.strip() or None
    d = os.environ.get(env_var, "").strip()
    return d or None


def trace_dir(cli_value: "str | None" = None) -> "str | None":
    """Directory for convergence-trace JSONL artifacts, if requested.

    Pass ``--trace-dir`` to ``python -m repro.bench`` (or set
    ``REPRO_TRACE_DIR=/some/dir``; the CLI flag wins when both are given)
    to make every benchmark run install a
    :class:`~repro.obs.recorder.TraceRecorder` and write one
    ``<problem>_<method>.jsonl`` per run.  Unset (the default): telemetry
    stays disabled and the hot loops take the no-recorder fast path.
    """
    return artifact_dir(cli_value, "REPRO_TRACE_DIR")


def profile_dir(cli_value: "str | None" = None) -> "str | None":
    """Directory for span-profile artifacts, if requested.

    Pass ``--profile-dir`` to ``python -m repro.bench`` (or set
    ``REPRO_PROFILE_DIR=/some/dir``; the CLI flag wins when both are
    given) to install a :class:`~repro.obs.profile.SpanProfiler` around
    every run and write one ``<problem>_<method>.trace.json`` Chrome
    trace plus one ``<problem>_<method>.metrics.json`` snapshot per run.
    Unset (the default): profiling stays disabled and ``span()`` costs a
    single global read.
    """
    return artifact_dir(cli_value, "REPRO_PROFILE_DIR")


def watchdog_enabled(cli_value: bool = False) -> bool:
    """True when run-health monitoring is requested.

    Enabled by ``--watchdog`` on the bench CLI or ``REPRO_WATCHDOG=1``
    in the environment (same falsy spellings as the other switches).
    """
    if cli_value:
        return True
    return env_flag("REPRO_WATCHDOG", default=False)


@dataclass(frozen=True)
class LaplaceScale:
    """Laplace-problem knobs (paper values in comments)."""

    nx: int = 26                 # paper: 100
    iterations: int = 150        # paper: 500
    lr_dal: float = 1e-2         # paper: 1e-2
    lr_dp: float = 1e-2          # paper: 1e-2
    backend: str = "dense"       # "dense" (paper) or "local" (RBF-FD)
    solver: str = "direct"       # "direct" (LU) or "iterative" (Krylov,
    # requires the local backend; see repro.autodiff.krylov)


@dataclass(frozen=True)
class NavierStokesScale:
    """Navier–Stokes knobs (paper values in comments)."""

    nx: int = 21                 # cloud ≈ nx*ny ≈ 1385 at full scale
    ny: int = 11
    iterations: int = 60         # paper: 350
    lr: float = 1e-1             # paper: 1e-1
    refinements_dal: int = 3     # paper: 3
    refinements_dp: int = 10     # paper: 10
    adjoint_refinements: int = 30
    reynolds: float = 100.0
    pseudo_dt: float = 0.5
    perturbation: float = 0.3
    backend: str = "dense"       # "dense" (paper) or "local" (RBF-FD)
    solver: str = "direct"       # "direct" (LU) or "iterative" (Krylov)


@dataclass(frozen=True)
class PinnScale:
    """PINN knobs (paper values in comments)."""

    laplace_epochs: int = 2000       # paper: 20k
    laplace_hidden: Tuple[int, ...] = (30, 30, 30)  # paper: 3×30
    laplace_lr: float = 2e-3         # paper: 1e-3
    laplace_omegas: Tuple[float, ...] = (1e-1, 1.0, 1e1)
    # paper: 11 values 1e-3..1e7, ω* = 1e-1
    ns_epochs: int = 1500            # paper: 100k
    ns_hidden: Tuple[int, ...] = (40, 40, 40)  # paper: 5×50 (full tier)
    ns_lr: float = 1e-3              # paper: 1e-3
    ns_omegas: Tuple[float, ...] = (1.0, 1e1)
    # paper: 9 values 1e-3..1e5, ω* = 1
    n_interior: int = 300
    n_boundary: int = 30


@dataclass(frozen=True)
class ExperimentScale:
    """The complete scale bundle for one tier."""

    name: str
    laplace: LaplaceScale = field(default_factory=LaplaceScale)
    ns: NavierStokesScale = field(default_factory=NavierStokesScale)
    pinn: PinnScale = field(default_factory=PinnScale)


DEFAULT_SCALE = ExperimentScale(name="default")

FULL_SCALE = ExperimentScale(
    name="full",
    laplace=LaplaceScale(nx=60, iterations=500),
    ns=NavierStokesScale(
        nx=43, ny=32, iterations=350, refinements_dal=3, refinements_dp=10,
        adjoint_refinements=60,
    ),
    pinn=PinnScale(
        laplace_epochs=20000,
        laplace_lr=1e-3,
        laplace_omegas=tuple(10.0**k for k in range(-3, 8)),
        ns_epochs=20000,
        ns_hidden=(50, 50, 50, 50, 50),
        ns_omegas=tuple(10.0**k for k in range(-3, 6)),
        n_interior=1000,
        n_boundary=80,
    ),
)


def get_scale() -> ExperimentScale:
    """Return the active tier (``REPRO_FULL=1`` selects the full tier).

    Both tiers run DP and the PINNs on the compiled execution tier, the
    library default; it is bitwise equal to the eager tape.
    """
    return FULL_SCALE if is_full_scale() else DEFAULT_SCALE
