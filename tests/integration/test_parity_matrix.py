"""Parity matrix: every execution path agrees with the reference path.

The reference for a problem and backend is the eager tape on a direct
LU, run serially in this process.  Each cell below builds a candidate
path and that reference for the same problem, then compares cost and
gradient, or the ``optimize`` trajectory (cost and gradient norm per
iteration) and the final control.  A cell with ``rtol=None`` is bitwise
(``np.array_equal``); a Krylov cell holds a relative tolerance.  Each
cell also asserts the invariants of its path (no codegen fallback, an
iteration ceiling, one trace record per iteration, ...).

Cells pinned elsewhere in tier 1 keep their own tests:

- NS compiled: ``tests/control/test_dp.py::
  TestNavierStokesDPDenseMomentum::test_execution_tiers_agree_bitwise``;
- Laplace compiled per backend: ``tests/autodiff/test_compile.py::
  test_laplace_dp_cost_matches_eager``;
- PINN compiled: ``tests/control/test_pinn_oracle.py``;
- ``--jobs``: ``tests/control/test_pinn.py::TestLineSearchParallel`` and
  ``tests/bench/test_cli.py::TestJobsFanOut``;
- NS Krylov DAL: ``tests/pde/test_ns_projection.py::
  test_dal_iterative_matches_direct``;
- ``vbatch``: ``tests/control/test_loop.py::TestBatchedCostSweep``;
- service versus ``execute_job``: ``tests/serve/test_service.py::
  test_solve_round_trip_matches_direct_execution``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import pytest

from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.control.dal import LaplaceDAL, NavierStokesDAL
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.loop import optimize
from repro.control.pinn import LaplacePINN, PINNTrainConfig
from repro.obs.profile import SpanProfiler, profiling
from repro.obs.recorder import recording
from repro.pde.laplace import LaplaceControlProblem
from repro.parallel.seeding import derive_seed
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig
from repro.serve.protocol import parse_request, request_digest
from repro.serve.worker import WorkerState, execute_job

#: Laplace ``optimize`` cells: 10×10 dense cloud, 20 Adam iterations.
NX, ITERS, LR = 10, 20, 1e-2

#: Krylov cells: N = 45² = 2025 on the local backend.
KRYLOV_NX, KRYLOV_RTOL, KRYLOV_MAX_ITERATIONS = 45, 1e-6, 60

#: The lowest fused-op fraction a compiled Laplace DP program may have.
MIN_FUSED_FRACTION = 0.5


@dataclass
class Comparison:
    """What one cell measured: candidate and reference, side by side."""

    candidate: Dict[str, np.ndarray]
    reference: Dict[str, np.ndarray]
    rtol: Optional[float] = None  # None: bitwise
    invariants: Dict[str, bool] = field(default_factory=dict)


def _run(oracle, iters: int = ITERS, lr: float = LR, **kwargs):
    control, history = optimize(oracle, iters, lr, **kwargs)
    return {"costs": np.array(history.costs),
            "grad_norms": np.array(history.grad_norms),
            "control": control}


def _gradient(oracle, control):
    cost, grad = oracle.value_and_grad(control)
    return {"cost": np.array(cost), "grad": np.asarray(grad)}


def _laplace():
    return LaplaceControlProblem(SquareCloud(NX))


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def compiled():
    problem = _laplace()
    oracle = LaplaceDP(problem, compile=True)
    candidate = _run(oracle)
    info = oracle._vg.cache_info()
    fractions = [p.stats.fused_fraction
                 for p in oracle._vg._cache.values() if p is not None]
    return Comparison(candidate, _run(LaplaceDP(problem)), invariants={
        f"codegen_fallbacks == 0 (got {info['codegen_fallbacks']})":
            info["codegen_fallbacks"] == 0,
        f"one compiled program at least (got {info['programs']})":
            info["programs"] >= 1,
        f"fused fraction >= {MIN_FUSED_FRACTION} (got {fractions})":
            min(fractions, default=0.0) >= MIN_FUSED_FRACTION,
    })


@functools.lru_cache(maxsize=None)
def _krylov_problems():
    cloud = SquareCloud(KRYLOV_NX)
    direct = LaplaceControlProblem(cloud, backend="local")
    iterative = LaplaceControlProblem(cloud, backend="local",
                                      solver="iterative")
    return direct, iterative


def krylov(oracle_cls):
    def cell():
        direct, iterative = _krylov_problems()
        control = direct.optimal_control() * 0.5
        oracle = oracle_cls(iterative)
        candidate = _gradient(oracle, control)
        ks = oracle.solver
        iterations = int(ks.last_iterations or 0)
        return Comparison(
            candidate, _gradient(oracle_cls(direct), control),
            rtol=KRYLOV_RTOL, invariants={
                f"iterations <= {KRYLOV_MAX_ITERATIONS} (got {iterations})":
                    iterations <= KRYLOV_MAX_ITERATIONS,
                f"n_fallbacks == 0 (got {ks.n_fallbacks})":
                    ks.n_fallbacks == 0,
            })
    return cell


def traced():
    problem = _laplace()
    with recording() as recorder:
        candidate = _run(LaplaceDP(problem))
    n_records = len(recorder.iterations)
    return Comparison(candidate, _run(LaplaceDP(problem)), invariants={
        f"one record per iteration (got {n_records})": n_records == ITERS,
    })


def profiled():
    problem = _laplace()
    profiler = SpanProfiler()
    with profiling(profiler):
        candidate = _run(LaplaceDP(problem))
    n_phase = sum(1 for sp in profiler.spans() if sp.category == "phase")
    return Comparison(candidate, _run(LaplaceDP(problem)), invariants={
        f"3 phase spans per iteration (got {n_phase})": n_phase == 3 * ITERS,
    })


#: Served shapes and the independently built oracle for each: the
#: reference does not import the worker's builders or its constants.
SERVED = {
    "laplace": ({"nx": 10, "iterations": 5},
                lambda: LaplaceControlProblem(SquareCloud(10)),
                {"dp": LaplaceDP, "dal": LaplaceDAL}),
    "ns": ({"nx": 13, "ny": 7, "iterations": 3},
           lambda: ChannelFlowProblem(cloud=ChannelCloud(13, 7),
                                      perturbation=0.3),
           {"dp": lambda p: NavierStokesDP(p, NSConfig(refinements=10)),
            "dal": lambda p: NavierStokesDAL(p, NSConfig(refinements=10))}),
}


def _execute(job):
    reply = execute_job(WorkerState(0), job)
    assert reply["ok"], reply
    return reply


def _served_solve(request):
    return _execute({"op": "solve", "request": request,
                     "digest": request_digest(request)})["result"]


def served(family, method):
    def cell():
        shape, build_problem, oracles = SERVED[family]
        request = parse_request({"family": family, "kind": "solve",
                                 "method": method, **shape})
        result = _served_solve(request)
        control, history = optimize(oracles[method](build_problem()),
                                    request.iterations, request.lr)
        return Comparison(
            {"cost": np.array(result["final_cost"]),
             "control": np.array(result["control"])},
            {"cost": np.array(history.best_cost), "control": control})
    return cell


def served_pinn():
    request = parse_request({"family": "laplace", "kind": "solve",
                             "method": "pinn", "nx": 10, "iterations": 20})
    result = _served_solve(request)
    problem = LaplaceControlProblem(SquareCloud(10))
    pinn = LaplacePINN(problem, config=PINNTrainConfig(
        epochs=20, lr=request.lr, n_interior=200, n_boundary=24))
    run = pinn.train_pair(
        0.1, seed=derive_seed(request.seed, request_digest(request)))
    control = pinn.control_values(run.params_c)
    return Comparison(
        {"cost": np.array(result["final_cost"]),
         "control": np.array(result["control"])},
        {"cost": np.array(LaplaceDP(problem).value(control)),
         "control": control})


def served_ns_evaluate():
    _, build_problem, _ = SERVED["ns"]
    problem = build_problem()
    controls = [problem.default_control(), 0.5 * problem.default_control()]
    requests = [parse_request({"family": "ns", "kind": "evaluate", "nx": 13,
                               "ny": 7, "control": list(c)})
                for c in controls]
    results = _execute({"op": "evaluate", "requests": requests})["results"]
    reference = []
    for c in controls:
        state = problem.solve(c, NSConfig(refinements=10))
        reference.append(problem.cost(state.u, state.v))
    return Comparison({"cost": np.array([r["cost"] for r in results])},
                      {"cost": np.array(reference)})


CELLS = [
    pytest.param(compiled, id="compiled-laplace-dp"),
    pytest.param(krylov(LaplaceDP), id="krylov-laplace-dp"),
    pytest.param(krylov(LaplaceDAL), id="krylov-laplace-dal"),
    pytest.param(traced, id="traced-laplace-dp"),
    pytest.param(profiled, id="profiled-laplace-dp"),
] + [
    pytest.param(served(family, method), id=f"served-{family}-{method}")
    for family in ("laplace", "ns") for method in ("dp", "dal")
] + [
    pytest.param(served_pinn, id="served-laplace-pinn"),
    pytest.param(served_ns_evaluate, id="served-ns-evaluate"),
]


@pytest.mark.parametrize("cell", CELLS)
def test_cell_matches_reference(cell):
    result = cell()
    assert result.candidate.keys() == result.reference.keys()
    for name, ref in result.reference.items():
        got = result.candidate[name]
        if result.rtol is None:
            assert np.array_equal(got, ref), (
                f"{name}: not bitwise equal, max |diff| = "
                f"{np.max(np.abs(got - ref)):.3e}"
            )
        else:
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            rel = float(np.max(np.abs(got - ref))) / scale
            assert rel <= result.rtol, f"{name}: rel {rel:.3e} > {result.rtol:g}"
    failed = [name for name, ok in result.invariants.items() if not ok]
    assert not failed, failed
