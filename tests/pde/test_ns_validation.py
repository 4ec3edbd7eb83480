"""Navier–Stokes settings that would give a wrong answer are rejected.

Unchecked, ``refinements`` ≤ 0 returns the initial guess with J = 0,
``adjoint_refinements`` ≤ 0 a zero gradient and a negative ``pseudo_dt``
a wrong flow, while a zero ``pseudo_dt`` or ``reynolds`` divides by zero.
Each raises a ``ValueError`` naming the field.  A non-finite control
raises ``FloatingPointError`` naming the control on every path, before
a solve could report it as a singular factor or a bad row scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.channel import ChannelCloud
from repro.control.dal import NavierStokesDAL
from repro.control.dp import NavierStokesDP
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig


@pytest.mark.parametrize(
    "field, value",
    [
        ("refinements", 0),
        ("refinements", -2),
        ("refinements", 2.0),
        ("pseudo_dt", 0.0),
        ("pseudo_dt", -0.5),
        ("pseudo_dt", float("inf")),
        ("reynolds", 0.0),
        ("reynolds", -100.0),
        ("reynolds", float("nan")),
    ],
)
def test_nsconfig_rejects(field, value):
    with pytest.raises(ValueError, match=f"NSConfig.{field}"):
        NSConfig(**{field: value})


@pytest.mark.parametrize("value", [0, -3])
def test_dal_rejects_adjoint_refinements(channel_problem, value):
    with pytest.raises(ValueError, match="adjoint_refinements"):
        NavierStokesDAL(channel_problem, NSConfig(refinements=3),
                        adjoint_refinements=value)


def test_smallest_valid_settings_pass(channel_problem):
    cfg = NSConfig(reynolds=10, refinements=1, pseudo_dt=0.3)
    dal = NavierStokesDAL(channel_problem, cfg, adjoint_refinements=1)
    assert dal.adjoint_refinements == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("backend", ["dense", "local"])
def test_non_finite_control_raises_on_every_path(backend, bad):
    pr = ChannelFlowProblem(cloud=ChannelCloud(12, 8), backend=backend)
    cfg = NSConfig(refinements=3)
    c = pr.default_control()
    c[len(c) // 2] = bad
    calls = {
        "solve": lambda: pr.solve(c, cfg),
        "dp.value": NavierStokesDP(pr, cfg).value,
        "dp.value_and_grad": NavierStokesDP(pr, cfg).value_and_grad,
        "dp.value_and_grad[compiled]":
            NavierStokesDP(pr, cfg, compile=True).value_and_grad,
        "dal.value": NavierStokesDAL(pr, cfg).value,
        "dal.value_and_grad": NavierStokesDAL(pr, cfg).value_and_grad,
    }
    for name, call in calls.items():
        with pytest.raises(FloatingPointError, match="control"):
            call() if name == "solve" else call(c)
