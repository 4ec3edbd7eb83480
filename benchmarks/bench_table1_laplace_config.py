"""TABLE 1 — Hyperparameter summary for the Laplace problem.

Regenerates the paper's Table 1 (the configuration each method runs with)
alongside the cost each configuration actually achieves at the active
scale.  The benchmark timings measure one gradient evaluation per method —
the unit of work the iteration counts multiply.
"""

import numpy as np

from repro.bench.configs import FULL_SCALE
from repro.bench.harness import spec_for
from repro.bench.tables import render_hyperparameter_table
from repro.control.dal import LaplaceDAL
from repro.control.dp import LaplaceDP
from repro.control.pinn import LaplacePINN, PINNTrainConfig
from repro.control.spec import build_problem


def _table_text(scale) -> str:
    s = scale
    rows = {
        "Init. learning rate": {
            "DAL": f"{s.laplace.lr_dal:g}",
            "PINN": f"{s.pinn.laplace_lr:g}",
            "DP": f"{s.laplace.lr_dp:g}",
        },
        "Network architecture": {
            "PINN": "x".join(str(h) for h in s.pinn.laplace_hidden)
        },
        "Epochs": {"PINN": str(s.pinn.laplace_epochs)},
        "Iterations": {"DAL": str(s.laplace.iterations), "DP": str(s.laplace.iterations)},
        "Point cloud size": {
            m: str(s.laplace.nx**2) for m in ("DAL", "PINN", "DP")
        },
        "Max. polynomial degree n": {"DAL": "1", "DP": "1"},
    }
    return render_hyperparameter_table(
        f"TABLE 1 (scale tier: {s.name}; paper full-scale: 100x100 cloud, "
        "lr 1e-2/1e-3/1e-2, 3x30 MLP, 500 iters / 20k epochs)",
        rows,
    )


def test_table1_render(scale, save_artifact, benchmark):
    text_default = _table_text(scale)
    text_paper = _table_text(FULL_SCALE)
    benchmark(lambda: _table_text(scale))
    save_artifact("table1_laplace_hyperparameters.txt", text_default)
    save_artifact("table1_laplace_hyperparameters_full_tier.txt", text_paper)
    assert "Init. learning rate" in text_default


def test_table1_dal_gradient_unit(scale, benchmark):
    """One DAL gradient = one direct + one adjoint solve."""
    prob = build_problem(spec_for(scale, "laplace", "dp"))
    dal = LaplaceDAL(prob)
    c = prob.zero_control()
    j, g = benchmark(dal.value_and_grad, c)
    assert np.isfinite(j) and np.all(np.isfinite(g))


def test_table1_dp_gradient_unit(scale, benchmark):
    """One DP gradient = one taped solve + one reverse pass."""
    prob = build_problem(spec_for(scale, "laplace", "dp"))
    dp = LaplaceDP(prob)
    c = prob.zero_control()
    j, g = benchmark(dp.value_and_grad, c)
    assert np.isfinite(j) and np.all(np.isfinite(g))


def test_table1_pinn_epoch_unit(scale, benchmark):
    """One PINN epoch = one loss + backward over both networks."""
    prob = build_problem(spec_for(scale, "laplace", "dp"))
    cfg = PINNTrainConfig(
        epochs=1,
        lr=scale.pinn.laplace_lr,
        n_interior=scale.pinn.n_interior,
        n_boundary=scale.pinn.n_boundary,
    )
    pinn = LaplacePINN(prob, state_hidden=scale.pinn.laplace_hidden, config=cfg)
    from repro.nn.pytree import value_and_grad_tree

    params = pinn.init_params()
    vg = value_and_grad_tree(lambda p: pinn.loss(p, omega=0.1))
    val, grads = benchmark(vg, params)
    assert np.isfinite(val)
