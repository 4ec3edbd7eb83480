"""Every Laplace oracle takes its factorisation from
:meth:`LaplaceControlProblem.factorize`, one per oracle (or, served, one
per assembled system), and factorises exactly once."""

import numpy as np
import pytest

from repro.control import LaplaceDAL, LaplaceDP
from repro.pde.laplace import LaplaceControlProblem
from repro.serve.protocol import parse_request
from repro.serve.worker import WorkerState


@pytest.fixture
def made(monkeypatch):
    """The solvers ``LaplaceControlProblem.factorize`` returns, in order."""
    solvers = []
    factorize = LaplaceControlProblem.factorize

    def counted(self):
        solvers.append(factorize(self))
        return solvers[-1]

    monkeypatch.setattr(LaplaceControlProblem, "factorize", counted)
    return solvers


def test_factorize_is_fresh_per_call(laplace_problem):
    a, b = laplace_problem.factorize(), laplace_problem.factorize()
    assert a is not b
    assert a.n_factorizations == b.n_factorizations == 1


@pytest.mark.parametrize("cls", [LaplaceDP, LaplaceDAL])
def test_oracle_factorises_once(laplace_problem, made, cls):
    oracle = cls(laplace_problem)
    for _ in range(3):
        oracle.value_and_grad(laplace_problem.zero_control())
    assert made == [oracle.solver]
    assert oracle.solver.n_factorizations == 1


def test_served_oracles_share_one_factorisation(made):
    state = WorkerState(root_seed=0)
    requests = [
        parse_request({"family": "laplace", "kind": "solve", "method": m,
                       "iterations": 2})
        for m in ("dp", "dal")
    ]
    oracles = [state.oracle(r, "target") for r in requests]
    for oracle in oracles:
        oracle.value_and_grad(np.zeros(oracle.problem.n_control))
    shared = state.solver(requests[0])
    assert shared in made
    assert list(state.solvers.values()) == [shared]
    assert all(o.solver is shared for o in oracles)
    assert shared.n_factorizations == 1
