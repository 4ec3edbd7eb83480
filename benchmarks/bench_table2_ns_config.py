"""TABLE 2 — Hyperparameter summary for the Navier–Stokes problem.

Regenerates the paper's Table 2 and benchmarks the per-iteration unit of
work of each method (one gradient / one epoch).
"""

import numpy as np

from repro.bench.configs import FULL_SCALE
from repro.bench.harness import spec_for
from repro.bench.tables import render_hyperparameter_table
from repro.control.dal import NavierStokesDAL
from repro.control.dp import NavierStokesDP
from repro.control.pinn import NavierStokesPINN, PINNTrainConfig
from repro.control.spec import build_problem
from repro.nn.pytree import value_and_grad_tree
from repro.pde.navier_stokes import NSConfig


def _table_text(scale) -> str:
    s = scale
    cloud_size = str(s.ns.nx * s.ns.ny - (s.ns.nx - 2) * 0)  # nominal nx*ny
    rows = {
        "Init. learning rate": {
            "DAL": f"{s.ns.lr:g}",
            "PINN": f"{s.pinn.ns_lr:g}",
            "DP": f"{s.ns.lr:g}",
        },
        "Network architecture": {
            "PINN": "x".join(str(h) for h in s.pinn.ns_hidden)
        },
        "Epochs": {"PINN": str(s.pinn.ns_epochs)},
        "Iterations": {"DAL": str(s.ns.iterations), "DP": str(s.ns.iterations)},
        "Refinements k": {
            "DAL": str(s.ns.refinements_dal),
            "DP": str(s.ns.refinements_dp),
        },
        "Point cloud size": {m: cloud_size for m in ("DAL", "PINN", "DP")},
        "Max. polynomial degree n": {"DAL": "1", "DP": "1"},
    }
    return render_hyperparameter_table(
        f"TABLE 2 (scale tier: {s.name}; paper full-scale: 1385-node GMSH "
        "cloud, lr 1e-1/1e-3/1e-1, 5x50 MLP, 350 iters / 100k epochs, "
        "k=3 DAL / k=10 DP)",
        rows,
    )


def test_table2_render(scale, save_artifact, benchmark):
    text = _table_text(scale)
    benchmark(lambda: _table_text(scale))
    save_artifact("table2_ns_hyperparameters.txt", text)
    save_artifact("table2_ns_hyperparameters_full_tier.txt", _table_text(FULL_SCALE))
    assert "Refinements k" in text


def test_table2_dal_gradient_unit(scale, benchmark):
    prob = build_problem(spec_for(scale, "ns", "dp"))
    cfg = NSConfig(
        reynolds=scale.ns.reynolds,
        refinements=scale.ns.refinements_dal,
        pseudo_dt=scale.ns.pseudo_dt,
    )
    dal = NavierStokesDAL(prob, cfg, adjoint_refinements=scale.ns.adjoint_refinements)
    c = prob.default_control()
    j, g = benchmark(dal.value_and_grad, c)
    assert np.isfinite(j)


def test_table2_dp_gradient_unit(scale, benchmark):
    prob = build_problem(spec_for(scale, "ns", "dp"))
    cfg = NSConfig(
        reynolds=scale.ns.reynolds,
        refinements=scale.ns.refinements_dp,
        pseudo_dt=scale.ns.pseudo_dt,
    )
    dp = NavierStokesDP(prob, cfg)
    c = prob.default_control()
    j, g = benchmark(dp.value_and_grad, c)
    assert np.isfinite(j) and np.all(np.isfinite(g))


def test_table2_pinn_epoch_unit(scale, benchmark):
    prob = build_problem(spec_for(scale, "ns", "dp"))
    cfg = PINNTrainConfig(
        epochs=1,
        lr=scale.pinn.ns_lr,
        n_interior=scale.pinn.n_interior,
        n_boundary=scale.pinn.n_boundary,
    )
    pinn = NavierStokesPINN(prob, state_hidden=scale.pinn.ns_hidden, config=cfg)
    params = pinn.init_params()
    vg = value_and_grad_tree(lambda p: pinn.loss(p, omega=1.0))
    val, _ = benchmark(vg, params)
    assert np.isfinite(val)
