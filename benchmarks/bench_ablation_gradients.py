"""ABLATION — gradient accuracy (§4, footnote 11).

The paper calls DP's gradients "the gold standard" and notes classical
finite differences also gave accurate Navier–Stokes gradients.  This
ablation quantifies the hierarchy: relative error of each method's
gradient against a high-order FD reference, on both problems.
"""

import numpy as np
import pytest

from repro.bench.harness import spec_for
from repro.bench.tables import render_table
from repro.control.dal import LaplaceDAL, NavierStokesDAL
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.fd import FiniteDifferenceOracle
from repro.control.spec import build_problem
from repro.pde.navier_stokes import NSConfig


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def laplace_grads(scale):
    prob = build_problem(spec_for(scale, "laplace", "dp"))
    dp = LaplaceDP(prob)
    dal = LaplaceDAL(prob)
    fd = FiniteDifferenceOracle(dp.value, prob.zero_control(), eps=1e-6)
    c = prob.zero_control()
    _, g_dp = dp.value_and_grad(c)
    _, g_dal = dal.value_and_grad(c)
    _, g_fd = fd.value_and_grad(c)
    return g_dp, g_dal, g_fd


@pytest.fixture(scope="module")
def ns_grads(scale):
    prob = build_problem(spec_for(scale, "ns", "dp"))
    cfg = NSConfig(
        reynolds=scale.ns.reynolds,
        refinements=4,
        pseudo_dt=scale.ns.pseudo_dt,
    )
    dp = NavierStokesDP(prob, cfg)
    dal = NavierStokesDAL(prob, cfg, adjoint_refinements=scale.ns.adjoint_refinements)
    fd = FiniteDifferenceOracle(dp.value, prob.default_control(), eps=1e-6)
    c = prob.default_control()
    _, g_dp = dp.value_and_grad(c)
    _, g_dal = dal.value_and_grad(c)
    _, g_fd = fd.value_and_grad(c)
    return g_dp, g_dal, g_fd


def test_gradient_accuracy_table(
    laplace_grads, ns_grads, save_artifact, benchmark
):
    rows = []
    for name, (g_dp, g_dal, g_fd) in (
        ("laplace", laplace_grads),
        ("navier-stokes", ns_grads),
    ):
        cos = g_dal @ g_fd / (np.linalg.norm(g_dal) * np.linalg.norm(g_fd))
        rows.append(
            [
                name,
                f"{rel_err(g_dp, g_fd):.2e}",
                f"{rel_err(g_dal, g_fd):.2e}",
                f"{cos:.4f}",
            ]
        )
    text = render_table(
        ["problem", "DP vs FD rel err", "DAL vs FD rel err", "cos(DAL, FD)"],
        rows,
        title="ABLATION: gradient accuracy vs central-difference reference",
    )
    benchmark(lambda: None)
    save_artifact("ablation_gradient_accuracy.txt", text)


def test_dp_is_gold_standard_laplace(laplace_grads, benchmark):
    g_dp, g_dal, g_fd = laplace_grads
    benchmark(lambda: None)
    assert rel_err(g_dp, g_fd) < 1e-6
    assert rel_err(g_dal, g_fd) > rel_err(g_dp, g_fd)


def test_dp_is_gold_standard_ns(ns_grads, benchmark):
    g_dp, g_dal, g_fd = ns_grads
    benchmark(lambda: None)
    assert rel_err(g_dp, g_fd) < 1e-5
    assert rel_err(g_dal, g_fd) > 1e-2  # the OTD gap at Re = 100


def test_fd_cost_scales_with_dimension(scale, benchmark):
    """FD needs 2n+1 evaluations — the reason it loses to DP at scale."""
    prob = build_problem(spec_for(scale, "laplace", "dp"))
    dp = LaplaceDP(prob)
    fd = FiniteDifferenceOracle(dp.value, prob.zero_control())
    c = prob.zero_control()

    def one_grad():
        fd.n_evaluations = 0
        fd.value_and_grad(c)
        return fd.n_evaluations

    n_evals = benchmark(one_grad)
    assert n_evals == 2 * c.size + 1
