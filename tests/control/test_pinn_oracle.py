"""Reference oracle for the PINN epoch loop.

``_reference_train`` is the loop in its most direct form: the eager
tape on the plain sum ``L_F + L_B + ω J``, the cost and residual of
every epoch re-evaluated by separate eager tapes at the parameters the
gradient was taken at, the frozen network's gradient replaced by zero
arrays, and Adam applied leaf by leaf.  The production loop takes the
histories from the loss program's aux outputs and runs Adam over one
flat vector; eager or compiled, it must reproduce the reference bit for
bit — histories and every parameter array.  Compiled, its epochs past
the first build no ``Tensor`` at all.
"""

import warnings

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.control.pinn import LaplacePINN, NavierStokesPINN, PINNTrainConfig
from repro.nn.optimizers import Adam
from repro.nn.pytree import tree_flatten, tree_map, tree_zip_map, value_and_grad_tree
from repro.nn.schedules import paper_schedule
from repro.pde.navier_stokes import NSConfig

OMEGA = 0.5
EPOCHS = 24


def _per_leaf_adam(beta1=0.9, beta2=0.999, eps=1e-8):
    """``(init, step)`` of Adam applied leaf by leaf."""

    def init(params):
        zeros = lambda p: np.zeros_like(np.asarray(p, dtype=np.float64))
        return (0, tree_map(zeros, params), tree_map(zeros, params))

    def step(params, grads, state, lr):
        t, m, v = state
        t += 1
        m = tree_zip_map(lambda mi, g: beta1 * mi + (1 - beta1) * np.asarray(g), m, grads)
        v = tree_zip_map(
            lambda vi, g: beta2 * vi + (1 - beta2) * np.asarray(g) ** 2, v, grads
        )
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t

        def update(p, mi, vi):
            mhat = mi / bc1
            vhat = vi / bc2
            return np.asarray(p, dtype=np.float64) - lr * mhat / (np.sqrt(vhat) + eps)

        return tree_zip_map(update, params, m, v), (t, m, v)

    return init, step


def _reference_train(loss_fn, params, config, alternating_keys=None, trackers=()):
    vg = value_and_grad_tree(loss_fn)
    init, step = _per_leaf_adam()
    state = init(params)
    schedule = paper_schedule(config.lr)
    history = []
    tracked = {name: [] for name, _ in trackers}
    for epoch in range(config.epochs):
        val, grads = vg(params)
        history.append(val)
        for name, fn in trackers:
            tracked[name].append(fn(params))
        lr = schedule(epoch, config.epochs)
        if alternating_keys:
            active = alternating_keys[epoch % len(alternating_keys)]
            for k in params:
                if k != active:
                    grads[k] = tree_map(lambda x: np.zeros_like(np.asarray(x)), grads[k])
        params, state = step(params, grads, state, lr)
    return params, history, tracked


def _assert_trees_equal(a, b):
    la, ta = tree_flatten(a)
    lb, tb = tree_flatten(b)
    assert ta == tb
    for x, y in zip(la, lb):
        assert np.array_equal(x, y)


def _config(compile, alternating):
    return PINNTrainConfig(
        epochs=EPOCHS, lr=3e-3, n_interior=40, n_boundary=8, seed=0,
        alternating=alternating, compile=compile,
    )


def _make(kind, problems, cfg):
    if kind == "laplace":
        return LaplacePINN(
            problems["laplace"], state_hidden=(8, 8), control_hidden=(6,), config=cfg
        )
    return NavierStokesPINN(
        problems["ns"],
        ns_config=NSConfig(reynolds=100.0, refinements=5, pseudo_dt=0.5),
        state_hidden=(8, 8),
        control_hidden=(6,),
        config=cfg,
    )


@pytest.fixture(scope="module")
def problems(laplace_problem, channel_problem):
    return {"laplace": laplace_problem, "ns": channel_problem}


KINDS = ["laplace", "ns"]
TIERS = [False, True]


@pytest.mark.parametrize("compile", TIERS, ids=["eager", "compiled"])
@pytest.mark.parametrize("alternating", [True, False], ids=["alternating", "joint"])
@pytest.mark.parametrize("kind", KINDS)
def test_train_pair_matches_reference(kind, alternating, compile, problems):
    cfg = _config(compile, alternating)
    pinn = _make(kind, problems, cfg)
    seed = 11

    def plain_loss(p):
        return (
            pinn.residual_loss(p["u"])
            + pinn.boundary_loss(p["u"], p["c"])
            + OMEGA * pinn.cost_objective(p["u"])
        )

    params, hist, tracked = _reference_train(
        plain_loss,
        pinn.init_params(seed),
        cfg,
        alternating_keys=("u", "c") if alternating else None,
        trackers=(
            ("cost", lambda p: float(pinn.cost_objective(p["u"]).data)),
            ("residual", lambda p: float(pinn.residual_loss(p["u"]).data)),
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a codegen fallback warns
        run = pinn.train_pair(OMEGA, cfg, seed=seed)

    assert np.array_equal(run.loss_history, hist)
    assert np.array_equal(run.cost_history, tracked["cost"])
    assert np.array_equal(run.residual_history, tracked["residual"])
    _assert_trees_equal(run.params_u, params["u"])
    _assert_trees_equal(run.params_c, params["c"])


@pytest.mark.parametrize("compile", TIERS, ids=["eager", "compiled"])
@pytest.mark.parametrize("kind", KINDS)
def test_retrain_state_matches_reference(kind, compile, problems):
    cfg = _config(compile, alternating=True)
    pinn = _make(kind, problems, cfg)
    seed = 4
    params_c = pinn.init_params(seed + 100)["c"]

    def forward_loss(p):
        return pinn.residual_loss(p["u"]) + pinn.boundary_loss(p["u"], params_c)

    params, hist, _ = _reference_train(
        forward_loss, {"u": pinn.net_u.init_params(seed + 7)}, cfg
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pu, run_hist = pinn.retrain_state(params_c, cfg, seed=seed)

    assert np.array_equal(run_hist, hist)
    _assert_trees_equal(pu, params["u"])


def _tensors_built_after_first_epoch(pinn, cfg, monkeypatch):
    """``Tensor`` constructions from the first Adam step to the end of
    ``train_pair`` — i.e. during epochs 2…N."""
    counting = {"on": False, "n": 0}
    init, step = Tensor.__init__, Adam.step

    def counted_init(self, *args, **kwargs):
        if counting["on"]:
            counting["n"] += 1
        init(self, *args, **kwargs)

    def flagged_step(self, *args, **kwargs):
        out = step(self, *args, **kwargs)
        counting["on"] = True
        return out

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    monkeypatch.setattr(Adam, "step", flagged_step)
    pinn.train_pair(OMEGA, cfg, seed=1)
    return counting["n"]


def test_compiled_epochs_build_no_tensors(laplace_problem, monkeypatch):
    """Past the traced first epoch, a compiled epoch runs only the kernel
    and the flat Adam update: no ``Tensor`` is built.  The eager tier,
    run through the same counter, shows the counter sees tape builds."""
    counts = {}
    for compile in TIERS:
        cfg = PINNTrainConfig(
            epochs=4, lr=3e-3, n_interior=20, n_boundary=6, seed=0, compile=compile
        )
        pinn = LaplacePINN(
            laplace_problem, state_hidden=(6,), control_hidden=(4,), config=cfg
        )
        with monkeypatch.context() as m:
            counts[compile] = _tensors_built_after_first_epoch(pinn, cfg, m)
    assert counts[True] == 0
    assert counts[False] > 0
