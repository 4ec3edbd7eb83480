"""ABLATION — DP cost vs refinement count k (§4).

"DP as conceived in this study can be memory inefficient due to storage
and optimisation of a computational graph ... the computational
complexity scales super-linearly with the number of refinement steps k."
This ablation sweeps k and measures one DP gradient's wall time (best of
three) and peak (tape) memory.
"""

import numpy as np
import pytest

from repro.bench.harness import make_ns_problem
from repro.bench.metrics import measure_run
from repro.bench.tables import render_table
from repro.control.dp import NavierStokesDP
from repro.pde.navier_stokes import NSConfig

KS = (2, 4, 8, 12)


@pytest.fixture(scope="module")
def sweep(scale):
    prob = make_ns_problem(scale)
    c = prob.default_control()
    out = []
    for k in KS:
        cfg = NSConfig(
            reynolds=scale.ns.reynolds, refinements=k, pseudo_dt=scale.ns.pseudo_dt
        )
        dp = NavierStokesDP(prob, cfg)
        # Best of three: one gradient takes ~10 ms, so a single timing
        # carries host noise and, for the first k, the process's one-off
        # first-call costs (~0.3 s).  Peak memory repeats exactly.
        runs = [measure_run(lambda: dp.value_and_grad(c)) for _ in range(3)]
        (j, _), _, mem = runs[0]
        out.append((k, min(t for _, t, _ in runs), mem, j))
    return out


def test_refinement_sweep_table(sweep, save_artifact, benchmark):
    rows = [
        [str(k), f"{t * 1e3:.1f}", f"{mem / 2**20:.1f}", f"{j:.3e}"]
        for k, t, mem, j in sweep
    ]
    text = render_table(
        ["k", "grad time (ms, best of 3)", "peak tape mem (MiB)", "J at initial c"],
        rows,
        title="ABLATION: DP gradient cost vs refinements k "
        "(paper: memory grows with k; k=10 used for DP, 45.3 GB at full scale)",
    )
    benchmark(lambda: None)
    save_artifact("ablation_refinements.txt", text)


def test_memory_grows_with_k(sweep, benchmark):
    benchmark(lambda: None)
    mems = [mem for _, _, mem, _ in sweep]
    assert mems[-1] > mems[0]


def test_time_grows_with_k(sweep, benchmark):
    benchmark(lambda: None)
    times = [t for _, t, _, _ in sweep]
    assert times[-1] > times[0]


def test_dp_gradient_per_k(scale, benchmark):
    """Timed benchmark of the k used in the paper's DP column."""
    prob = make_ns_problem(scale)
    cfg = NSConfig(
        reynolds=scale.ns.reynolds,
        refinements=scale.ns.refinements_dp,
        pseudo_dt=scale.ns.pseudo_dt,
    )
    dp = NavierStokesDP(prob, cfg)
    c = prob.default_control()
    j, g = benchmark(dp.value_and_grad, c)
    assert np.all(np.isfinite(g))
