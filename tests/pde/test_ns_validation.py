"""Navier–Stokes settings that would give a wrong answer are rejected.

Unchecked, ``refinements`` ≤ 0 returns the initial guess with J = 0,
``adjoint_refinements`` ≤ 0 a zero gradient and a negative ``pseudo_dt``
a wrong flow, while a zero ``pseudo_dt`` or ``reynolds`` divides by zero.
Each raises a ``ValueError`` naming the field.
"""

from __future__ import annotations

import pytest

from repro.control.dal import NavierStokesDAL
from repro.pde.navier_stokes import NSConfig


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
