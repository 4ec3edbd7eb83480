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

from dataclasses import replace
from typing import Dict

from repro.control.loop import optimize
from repro.control.spec import RunSpec, build_oracle, build_problem
from repro.obs.hooks import record_oracle_telemetry
from repro.obs.recorder import TraceRecorder, recording

#: One golden run per name: problem, method, and every relevant knob.
#: The DP runs record the eager tape, the reference tier; the compiled
#: tier's trace adds only a ``compiled-replay`` cache record.
TIER0: Dict[str, RunSpec] = {
    "laplace_dp_tier0": RunSpec(
        family="laplace", method="dp", nx=10, iterations=25, lr=1e-2,
        compile=False,
    ),
    "laplace_dal_tier0": RunSpec(
        family="laplace", method="dal", nx=10, iterations=25, lr=1e-2
    ),
    "ns_dp_tier0": RunSpec(
        family="ns", method="dp", nx=13, ny=7, iterations=8, lr=1e-1,
        refinements=3, compile=False,
    ),
}


def run_tier0(name: str, **overrides) -> TraceRecorder:
    """Run one tier-0 config under a fresh trace recorder and return it.

    ``overrides`` replace spec fields (``run_tier0("laplace_dp_tier0",
    lr=2e-2)``) — the injected-regression tests use this to verify the
    comparator actually catches a changed trajectory.
    """
    try:
        spec = TIER0[name]
    except KeyError:
        raise KeyError(
            f"unknown tier-0 config {name!r}; available: {sorted(TIER0)}"
        ) from None
    if overrides:
        spec = replace(spec, **overrides)

    rec = TraceRecorder(
        config=name,
        method=spec.method.upper(),
        problem=spec.problem_name,
        backend=spec.backend,
    )
    with recording(rec):
        oracle = build_oracle(spec, build_problem(spec))
        optimize(oracle, spec.iterations, spec.lr)
        record_oracle_telemetry(oracle)
    return rec
