"""ABLATION — multi-RHS factorisation reuse (the vbatch solve rule).

The batching transform lowers N independent PDE solves to ONE
factorisation serving an ``(N_rhs, n)`` block — the mechanism behind
:func:`repro.control.loop.batched_cost_sweep`.
This ablation quantifies that reuse in isolation: for
N_rhs ∈ {1, 8, 64, 256}, solve the same Laplace system against N random
right-hand sides (a) refactorising per RHS, as a naive loop over
independent programs would, and (b) factorising once and calling
``solve_block``.  Both the dense (LAPACK getrs) and sparse (SuperLU)
backends are swept.  The sparse block path is additionally bitwise
per-column for narrow blocks — the regime the bit-identity CI gates run
in; the table's ``bitwise`` column records honestly where each backend
leaves that regime (SuperLU switches to a blocked substitution around
~50 columns, dense getrs already reorders at 2).

A second table times the end-to-end sweep: ``batched_cost_sweep`` over
N ∈ {8, 64} candidates on a 12×12 Laplace DP oracle against a loop of
``oracle.value`` calls, on both backends.  Both sides are warm (one
factorisation cached) and timed with ``time.perf_counter`` medians —
``measure_run``'s ``tracemalloc`` would dominate millisecond timings.
Only the values are asserted (bitwise on the sparse backend, rel 1e-12
on the dense one); the speed column is reported, not gated.
"""

import time

import numpy as np
import pytest

from repro.bench.metrics import measure_run
from repro.bench.tables import render_table
from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP
from repro.control.loop import batched_cost_sweep
from repro.pde.laplace import LaplaceControlProblem
from repro.rbf.assembly import LinearOperator2D
from repro.rbf.solver import (
    BoundaryCondition,
    LinearPDEProblem,
    LocalRBFSolver,
    RBFSolver,
)

N_RHS = (1, 8, 64, 256)
NX = 14
SWEEP_N = (8, 64)
SWEEP_NX = 12
SWEEP_REPEATS = 9


def _problem():
    return LinearPDEProblem(
        operator=LinearOperator2D(lap=1.0),
        bcs={
            g: BoundaryCondition("dirichlet", value=0.0)
            for g in ("top", "bottom", "left", "right")
        },
    )


@pytest.fixture(scope="module")
def sweep():
    cloud = SquareCloud(NX)
    rng = np.random.default_rng(0)
    blocks = {n: rng.standard_normal((n, cloud.n)) for n in N_RHS}
    out = []
    for backend, solver_cls in (("dense", RBFSolver), ("local", LocalRBFSolver)):
        for n_rhs in N_RHS:
            B = blocks[n_rhs]
            prob = _problem()

            # (a) refactorise per RHS: fresh solver, no cache key.
            def refactorise():
                s = solver_cls(cloud)
                return np.stack(
                    [s.solve_block(prob, b[None])[0] for b in B]
                ), s

            (x_loop, s_loop), t_loop, _ = measure_run(refactorise)

            # (b) factorise once, one multi-RHS call.
            def reuse():
                s = solver_cls(cloud)
                return s.solve_block(prob, B), s

            (x_block, s_block), t_block, _ = measure_run(reuse)

            assert s_loop.n_factorizations == n_rhs
            assert s_block.n_factorizations == 1
            np.testing.assert_allclose(x_block, x_loop, rtol=0, atol=1e-10)
            out.append(
                {
                    "backend": backend,
                    "n_rhs": n_rhs,
                    "t_loop": t_loop,
                    "t_block": t_block,
                    "speedup": t_loop / t_block if t_block > 0 else float("inf"),
                    "bitwise": bool(np.array_equal(x_block, x_loop)),
                }
            )
    return out


@pytest.fixture(scope="module")
def cost_sweep():
    out = []
    for backend in ("dense", "local"):
        problem = LaplaceControlProblem(SquareCloud(SWEEP_NX), backend=backend)
        oracle = LaplaceDP(problem)
        for n in SWEEP_N:
            controls = np.random.default_rng(n).standard_normal(
                (n, problem.n_control)
            )
            oracle.value(controls[0])  # warm: the factorisation is cached
            t_sweep, t_loop = [], []
            for _ in range(SWEEP_REPEATS):  # interleave the two sides
                t0 = time.perf_counter()
                j_sweep = batched_cost_sweep(oracle, controls)
                t1 = time.perf_counter()
                j_loop = np.array([oracle.value(c) for c in controls])
                t2 = time.perf_counter()
                t_sweep.append(t1 - t0)
                t_loop.append(t2 - t1)
            if backend == "local":
                assert np.array_equal(j_sweep, j_loop)
            else:
                np.testing.assert_allclose(j_sweep, j_loop, rtol=1e-12, atol=0)
            out.append(
                {
                    "backend": backend,
                    "n": n,
                    "t_sweep": float(np.median(t_sweep)),
                    "t_loop": float(np.median(t_loop)),
                }
            )
    return out


def test_factorisation_reuse_table(sweep, cost_sweep, save_artifact, benchmark):
    rows = [
        [
            r["backend"],
            str(r["n_rhs"]),
            f"{r['t_loop'] * 1e3:.1f}",
            f"{r['t_block'] * 1e3:.1f}",
            f"{r['speedup']:.1f}x",
            "yes" if r["bitwise"] else "no",
        ]
        for r in sweep
    ]
    text = render_table(
        ["backend", "N_rhs", "refactorise ms", "factorise-once ms",
         "speedup", "bitwise"],
        rows,
        title=f"ABLATION: multi-RHS factorisation reuse "
        f"(Laplace, {SquareCloud(NX).n} nodes)",
    )
    sweep_rows = [
        [
            r["backend"],
            str(r["n"]),
            f"{r['t_loop'] * 1e3:.2f}",
            f"{r['t_sweep'] * 1e3:.2f}",
            f"{r['t_loop'] / r['t_sweep']:.1f}x",
        ]
        for r in cost_sweep
    ]
    text += "\n\n" + render_table(
        ["backend", "N", "value loop ms", "batched_cost_sweep ms", "speedup"],
        sweep_rows,
        title=f"ABLATION: batched_cost_sweep vs oracle.value loop "
        f"(Laplace DP, {SquareCloud(SWEEP_NX).n} nodes, median of "
        f"{SWEEP_REPEATS})",
    )
    benchmark(lambda: None)
    save_artifact("ablation_batching.txt", text)


def test_reuse_wins_at_scale(sweep, benchmark):
    """Factorise-once must dominate once the block amortises the LU."""
    benchmark(lambda: None)
    for r in sweep:
        if r["n_rhs"] >= 64:
            assert r["speedup"] > 2.0, (
                f"{r['backend']} N_rhs={r['n_rhs']}: {r['speedup']:.2f}x"
            )


def test_sparse_block_bitwise_for_narrow_blocks(sweep, benchmark):
    """SuperLU's multi-RHS path is column-for-column bitwise in the
    narrow-block regime the batched cost sweeps use
    (wide blocks may take a blocked substitution); the dense getrs block
    is only allclose even at 2 columns."""
    benchmark(lambda: None)
    for r in sweep:
        if r["backend"] == "local" and r["n_rhs"] <= 8:
            assert r["bitwise"], f"N_rhs={r['n_rhs']}"


def test_block_solve_scaling(benchmark):
    """Timing hook: the 256-RHS block solve on the sparse backend."""
    cloud = SquareCloud(NX)
    solver = LocalRBFSolver(cloud)
    B = np.random.default_rng(1).standard_normal((256, cloud.n))
    prob = _problem()
    solver.solve_block(prob, B, cache_key="bench")  # prime the cache
    benchmark(solver.solve_block, prob, B, "bench")
