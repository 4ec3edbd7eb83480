"""One factorisation protocol for ``make_linear_solver``'s three products.

Dense LU, ``splu`` and Krylov are all
:class:`~repro.autodiff.linalg.FactorizedSolver` subclasses that implement
only ``_solve(b, transposed)``; the tape node, the block solve and the
untaped forward/adjoint solves come from the base.  For each product:

- the tape forward equals :meth:`solve_numpy` and the VJP of ``__call__``
  equals :meth:`solve_transposed`, bit for bit;
- :meth:`solve_block` rows (and their cotangents) equal per-vector
  solves: bitwise for ``splu`` and Krylov, to ``atol 1e-12`` for the
  dense multi-RHS ``getrs``;
- a compiled replay of the node matches the eager tape.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autodiff import ops
from repro.autodiff.compile import compiled_value_and_grad
from repro.autodiff.krylov import KrylovSolver
from repro.autodiff.linalg import FactorizedSolver, LUSolver
from repro.autodiff.sparse import SparseLUSolver, make_linear_solver
from repro.autodiff.tensor import tensor

M = 9
N_RHS = 4

#: product id -> (build from a sparse matrix, class, primitive, block atol)
PRODUCTS = {
    "dense-lu": (
        lambda A: make_linear_solver(A.toarray()), LUSolver, "lu_solve", 1e-12,
    ),
    "sparse-splu": (
        lambda A: make_linear_solver(A), SparseLUSolver, "sparse_lu_solve", 0.0,
    ),
    "sparse-krylov": (
        lambda A: make_linear_solver(A, solver="iterative"),
        KrylovSolver, "krylov_solve", 0.0,
    ),
}


def _matrix(seed: int = 0) -> sp.csr_matrix:
    """A well-conditioned nonsymmetric tridiagonal system."""
    rng = np.random.default_rng(seed)
    d0 = rng.uniform(3.0, 4.0, M)
    dl = rng.uniform(-1.0, 1.0, M - 1)
    du = rng.uniform(-1.0, 1.0, M - 1)
    return sp.diags([dl, d0, du], [-1, 0, 1]).tocsr()


@pytest.fixture(params=list(PRODUCTS))
def product(request):
    build, cls, op, atol = PRODUCTS[request.param]
    return build(_matrix()), cls, op, atol


def _assert_close(actual, expected, atol):
    if atol == 0.0:
        assert np.array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)


def test_product_is_a_factorized_solver(product):
    solver, cls, op, _ = product
    assert type(solver) is cls
    assert isinstance(solver, FactorizedSolver)
    assert type(solver).__call__._primitive_name == op


def test_tape_forward_is_solve_numpy(product):
    solver = product[0]
    b = np.random.default_rng(1).standard_normal(M)
    assert np.array_equal(solver(b).data, solver.solve_numpy(b))


def test_vjp_is_solve_transposed(product):
    solver = product[0]
    rng = np.random.default_rng(2)
    b, g = rng.standard_normal(M), rng.standard_normal(M)
    bt = tensor(b, requires_grad=True)
    solver(bt).backward(g)
    assert np.array_equal(bt.grad, solver.solve_transposed(g))
    assert solver.n_factorizations == 1


def test_solve_block_rows_match_per_vector_solves(product):
    solver, _, _, atol = product
    rng = np.random.default_rng(3)
    B, G = rng.standard_normal((N_RHS, M)), rng.standard_normal((N_RHS, M))
    Bt = tensor(B, requires_grad=True)
    X = solver.solve_block(Bt)
    X.backward(G)
    for i in range(N_RHS):
        _assert_close(X.data[i], solver.solve_numpy(B[i]), atol)
        _assert_close(Bt.grad[i], solver.solve_transposed(G[i]), atol)


def test_compiled_replay_matches_eager(product):
    solver = product[0]

    def loss(b):
        return ops.sum_(ops.square(solver(b)))

    compiled = compiled_value_and_grad(loss)
    rng = np.random.default_rng(4)
    b1, b2 = rng.standard_normal(M), rng.standard_normal(M)
    compiled(b1)  # trace
    value, grad = compiled(b2)  # replay: the fwd closure re-solves
    assert compiled.cache_info()["replays"] == 1
    bt = tensor(b2, requires_grad=True)
    out = loss(bt)
    out.backward()
    assert value == pytest.approx(float(out.data), rel=1e-12, abs=0)
    np.testing.assert_array_equal(grad, bt.grad)
