"""Smoke tests for the benchmark runners at miniature scale."""

import dataclasses

import numpy as np
import pytest

from repro.bench.configs import (
    ExperimentScale,
    LaplaceScale,
    NavierStokesScale,
    PinnScale,
)
from repro.bench.harness import run, spec_for
from repro.control.spec import build_problem
from repro.pde.navier_stokes import NSConfig

TINY = ExperimentScale(
    name="tiny",
    laplace=LaplaceScale(nx=12, iterations=25),
    ns=NavierStokesScale(nx=15, ny=8, iterations=8, refinements_dal=3,
                         refinements_dp=4, adjoint_refinements=10),
    pinn=PinnScale(
        laplace_epochs=60,
        laplace_omegas=(1e-1,),
        ns_epochs=40,
        ns_omegas=(1.0,),
        n_interior=40,
        n_boundary=8,
        laplace_hidden=(8,),
        ns_hidden=(8,),
    ),
)


@pytest.fixture(scope="module")
def lap_problem():
    return build_problem(spec_for(TINY, "laplace", "dp"))


@pytest.fixture(scope="module")
def ns_problem():
    return build_problem(spec_for(TINY, "ns", "dp"))


class TestLaplaceRunners:
    def test_dp(self, lap_problem):
        r = run(spec_for(TINY, "laplace", "dp"), problem=lap_problem)
        assert r.method == "DP" and r.problem == "laplace"
        assert r.final_cost < r.cost_history[0]
        assert r.wall_time_s > 0 and r.peak_mem_bytes > 0
        assert len(r.cost_history) == TINY.laplace.iterations

    def test_dal(self, lap_problem):
        r = run(spec_for(TINY, "laplace", "dal"), problem=lap_problem)
        assert r.final_cost < r.cost_history[0]

    def test_fd(self, lap_problem):
        spec = dataclasses.replace(spec_for(TINY, "laplace", "fd"),
                                   iterations=5)
        r = run(spec, problem=lap_problem)
        assert r.iterations == 5
        assert r.extra["n_evaluations"] > 5  # 2n+1 evals per iter

    def test_pinn(self, lap_problem):
        r = run(spec_for(TINY, "laplace", "pinn"), problem=lap_problem)
        assert r.method == "PINN"
        assert r.extra["best_omega"] == 1e-1
        assert len(r.extra["step2_costs"]) == 1
        assert np.isfinite(r.final_cost)


class TestNSRunners:
    def test_dp(self, ns_problem):
        r = run(spec_for(TINY, "ns", "dp"), problem=ns_problem)
        assert r.final_cost <= r.cost_history[0]
        assert r.extra["refinements"] == TINY.ns.refinements_dp

    def test_dal_records_final_not_best(self, ns_problem):
        r = run(spec_for(TINY, "ns", "dal"), problem=ns_problem)
        assert r.final_cost == r.cost_history[-1]
        assert "best_cost" in r.extra

    def test_dp_reynolds_override(self, ns_problem):
        spec = dataclasses.replace(spec_for(TINY, "ns", "dp"), reynolds=10.0)
        r = run(spec, problem=ns_problem)
        assert r.extra["reynolds"] == 10.0

    def test_pinn(self, ns_problem):
        r = run(spec_for(TINY, "ns", "pinn"), problem=ns_problem)
        assert r.extra["best_omega"] == 1.0
        # The headline cost is the control re-simulated by the solver.
        cfg = NSConfig(TINY.ns.reynolds, TINY.ns.refinements_dp,
                       TINY.ns.pseudo_dt)
        state = ns_problem.solve(r.control, cfg)
        assert r.final_cost == ns_problem.cost(state.u, state.v)
