"""Adjoint-gradcheck and failure-mode suite for the Krylov backend.

The matrix-free solvers (:mod:`repro.autodiff.krylov`) are only usable
at 100k nodes if their gradients are trustworthy at 10 nodes.  These
tests pin the implicit-adjoint contract against the two direct solvers
at sizes where all three run:

- ``vjp_b`` through :class:`KrylovSolver` must match the dense
  :class:`LUSolver` and the sparse :class:`SparseLUSolver` gradients,
  for both methods (BiCGSTAB / restarted GMRES) and all three
  preconditioners;
- operator-*data* cotangents through :func:`krylov_pattern_solve` must
  match :func:`sparse_pattern_solve` (same sparse-restriction formula,
  different inner solve);
- the contract must survive ``compile=True`` replay and ``vbatch``
  composition — the two transforms the DP hot loop actually applies.

The failure-mode half pins the "never silently unconverged" policy: a
solve that misses its tolerance either raises a fully-diagnosed
:class:`KrylovConvergenceError` or (with ``fallback=True``) completes
via a direct factorisation, and emits an obs solver event either way.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.autodiff import ops
from repro.autodiff.batching import vbatch
from repro.autodiff.check import numerical_gradient
from repro.autodiff.compile import compiled_value_and_grad
from repro.autodiff.krylov import (
    KrylovConvergenceError,
    KrylovSolver,
    bicgstab,
    gmres,
    krylov_pattern_solve,
)
from repro.autodiff.linalg import LUSolver
from repro.autodiff.sparse import (
    SparseLUSolver,
    make_linear_solver,
    sparse_pattern_solve,
)
from repro.autodiff.tensor import tensor
from repro.obs import TraceRecorder

M = 10
N_RHS = 3

#: Gradient-parity tolerance between iterative and direct solvers: the
#: Krylov solves run at tol=1e-10, so the adjoint identity holds to the
#: same order; 1e-7 leaves three decades of headroom.
GRAD_RTOL = 1e-7
GRAD_ATOL = 1e-9


def _system(m: int = M, seed: int = 0):
    """A well-conditioned nonsymmetric sparse test system."""
    rng = np.random.default_rng(seed)
    d0 = rng.uniform(3.0, 4.0, m)
    dl = rng.uniform(-1.0, 1.0, m - 1)
    du = rng.uniform(-1.0, 1.0, m - 1)
    A = sp.diags([dl, d0, du], [-1, 0, 1]).tocsr()
    return A, rng


def _grad_of_loss(solver, b, cot=None):
    bt = tensor(b, requires_grad=True)
    x = solver(bt)
    if cot is None:
        ops.sum_(ops.square(x)).backward()
    else:
        x.backward(cot)
    return bt.grad


class TestVjpBMatchesDirectSolvers:
    @pytest.mark.parametrize("method", ["bicgstab", "gmres"])
    @pytest.mark.parametrize("preconditioner", ["ilu", "jacobi", None])
    def test_grad_matches_dense_and_sparse_lu(self, method, preconditioner):
        A, rng = _system()
        b = rng.standard_normal(M)

        g_dense = _grad_of_loss(LUSolver(A.toarray()), b)
        g_sparse = _grad_of_loss(SparseLUSolver(A), b)
        g_krylov = _grad_of_loss(
            KrylovSolver(A, method=method, preconditioner=preconditioner), b
        )

        np.testing.assert_allclose(g_sparse, g_dense, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            g_krylov, g_dense, rtol=GRAD_RTOL, atol=GRAD_ATOL
        )

    def test_grad_matches_numerical(self):
        A, rng = _system(seed=1)
        b = rng.standard_normal(M)
        ks = KrylovSolver(A)

        def loss(v):
            return ops.sum_(ops.square(ks(v)))

        bt = tensor(b, requires_grad=True)
        loss(bt).backward()
        num = numerical_gradient(lambda v: float(loss(tensor(v)).data), b)
        np.testing.assert_allclose(bt.grad, num, rtol=1e-6, atol=1e-8)

    def test_adjoint_solves_transposed_system(self):
        # The VJP is A^{-T} x̄ — check against the explicit inverse.
        A, rng = _system(seed=2)
        b = rng.standard_normal(M)
        cot = rng.standard_normal(M)
        g = _grad_of_loss(KrylovSolver(A), b, cot=cot)
        expected = np.linalg.solve(A.toarray().T, cot)
        np.testing.assert_allclose(g, expected, rtol=GRAD_RTOL, atol=GRAD_ATOL)

    def test_solve_numpy_and_transposed_match_splu(self):
        A, rng = _system(seed=3)
        b = rng.standard_normal(M)
        lu = spla.splu(sp.csc_matrix(A))
        ks = KrylovSolver(A)
        np.testing.assert_allclose(
            ks.solve_numpy(b), lu.solve(b), rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            ks.solve_transposed(b), lu.solve(b, trans="T"),
            rtol=1e-8, atol=1e-10,
        )


class TestOperatorDataCotangents:
    @pytest.mark.parametrize("method", ["bicgstab", "gmres"])
    def test_pattern_solve_grads_match_sparse_pattern_solve(self, method):
        A, rng = _system(seed=4)
        coo = A.tocoo()
        rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
        b = rng.standard_normal(M)
        cot = rng.standard_normal(M)

        d_ref = tensor(coo.data.copy(), requires_grad=True)
        b_ref = tensor(b, requires_grad=True)
        sparse_pattern_solve(rows, cols, (M, M), d_ref, b_ref).backward(cot)

        d_it = tensor(coo.data.copy(), requires_grad=True)
        b_it = tensor(b, requires_grad=True)
        krylov_pattern_solve(
            rows, cols, (M, M), d_it, b_it, method=method
        ).backward(cot)

        np.testing.assert_allclose(
            d_it.grad, d_ref.grad, rtol=GRAD_RTOL, atol=GRAD_ATOL
        )
        np.testing.assert_allclose(
            b_it.grad, b_ref.grad, rtol=GRAD_RTOL, atol=GRAD_ATOL
        )

    def test_pattern_data_grad_matches_numerical(self):
        A, rng = _system(7, seed=5)
        coo = A.tocoo()
        rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
        b = rng.standard_normal(7)

        def loss(d):
            return ops.sum_(
                ops.square(krylov_pattern_solve(rows, cols, (7, 7), d, b))
            )

        dt = tensor(coo.data.copy(), requires_grad=True)
        loss(dt).backward()
        num = numerical_gradient(
            lambda v: float(loss(tensor(v)).data), coo.data
        )
        np.testing.assert_allclose(dt.grad, num, rtol=1e-5, atol=1e-7)


class TestCompiledReplay:
    def test_compiled_value_and_grad_matches_eager(self):
        A, rng = _system(seed=6)
        ks = KrylovSolver(A)

        def loss(b):
            return ops.sum_(ops.square(ks(b)))

        compiled = compiled_value_and_grad(loss)
        b1 = rng.standard_normal(M)
        b2 = rng.standard_normal(M)

        refs = []
        for b in (b1, b2):
            bt = tensor(b, requires_grad=True)
            out = loss(bt)
            out.backward()
            refs.append((float(out.data), bt.grad))

        v1, g1 = compiled(b1)  # trace call
        v2, g2 = compiled(b2)  # replay call (fwd closure re-solves)

        assert v1 == pytest.approx(refs[0][0], rel=1e-12, abs=0)
        np.testing.assert_array_equal(g1, refs[0][1])
        assert v2 == pytest.approx(refs[1][0], rel=1e-12, abs=0)
        np.testing.assert_array_equal(g2, refs[1][1])

    def test_compiled_pattern_solve_rebuilds_operator(self):
        # Under replay the operator values are *constant* inputs, but the
        # fwd closure must still rebuild the holder so the adjoint runs
        # against the matching operator.
        A, rng = _system(8, seed=7)
        coo = A.tocoo()
        rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
        data = coo.data.copy()

        def loss(b):
            return ops.sum_(
                ops.square(
                    krylov_pattern_solve(rows, cols, (8, 8), data, b)
                )
            )

        compiled = compiled_value_and_grad(loss)
        b1, b2 = rng.standard_normal(8), rng.standard_normal(8)
        compiled(b1)
        v, g = compiled(b2)
        bt = tensor(b2, requires_grad=True)
        out = loss(bt)
        out.backward()
        assert v == pytest.approx(float(out.data), rel=1e-12, abs=0)
        np.testing.assert_array_equal(g, bt.grad)


class TestVbatchComposition:
    def test_batched_vjp_matches_independent_solves(self):
        A, rng = _system(seed=8)
        ks = KrylovSolver(A)
        B = rng.standard_normal((N_RHS, M))
        cot = rng.standard_normal((N_RHS, M))

        bt = tensor(B, requires_grad=True)
        xs = vbatch(ks)(bt)
        xs.backward(cot)

        ref = KrylovSolver(A)
        for i in range(N_RHS):
            bi = tensor(B[i], requires_grad=True)
            ref(bi).backward(cot[i])
            # Block columns run exactly the per-vector code path, so the
            # batched result is bitwise equal to independent solves.
            assert np.array_equal(xs.data[i], ref(tensor(B[i])).data), f"rhs {i}"
            assert np.array_equal(bt.grad[i], bi.grad), f"rhs {i}"

    def test_solve_block_matches_batched_rule(self):
        A, rng = _system(seed=9)
        B = rng.standard_normal((N_RHS, M))
        cot = rng.standard_normal((N_RHS, M))

        b1 = tensor(B, requires_grad=True)
        x1 = KrylovSolver(A).solve_block(b1)
        x1.backward(cot)

        b2 = tensor(B, requires_grad=True)
        x2 = vbatch(KrylovSolver(A))(b2)
        x2.backward(cot)

        assert np.array_equal(x1.data, x2.data)
        assert np.array_equal(b1.grad, b2.grad)

    def test_single_preconditioner_serves_forward_and_adjoint(self):
        A, rng = _system(seed=10)
        ks = KrylovSolver(A)
        B = rng.standard_normal((N_RHS, M))

        bt = tensor(B, requires_grad=True)
        out = vbatch(lambda b: ops.sum_(ops.square(ks(b))))(bt)
        assert ks.n_factorizations == 1
        assert ks.n_solves == 1  # ONE multi-RHS forward call
        out.backward(np.ones(N_RHS))
        assert ks.n_factorizations == 1
        assert ks.n_solves == 2  # + ONE multi-RHS adjoint call
        assert ks.n_fallbacks == 0

    def test_batched_pattern_solve_data_cotangent_matches_loop(self):
        A, rng = _system(7, seed=11)
        coo = A.tocoo()
        rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
        B = rng.standard_normal((N_RHS, 7))
        cot = rng.standard_normal((N_RHS, 7))

        d1 = tensor(coo.data.copy(), requires_grad=True)
        xs = vbatch(
            lambda b: krylov_pattern_solve(rows, cols, (7, 7), d1, b),
            in_axes=0,
        )(B)
        xs.backward(cot)

        d2 = tensor(coo.data.copy(), requires_grad=True)
        for i in range(N_RHS):
            krylov_pattern_solve(rows, cols, (7, 7), d2, B[i]).backward(cot[i])
        np.testing.assert_allclose(d1.grad, d2.grad, rtol=0, atol=1e-12)


class TestFailureModes:
    def _hard_system(self):
        # Unpreconditioned BiCGSTAB cannot finish this in 2 iterations.
        A, rng = _system(40, seed=12)
        return A, rng.standard_normal(40)

    def test_nonconvergence_raises_typed_error(self):
        A, b = self._hard_system()
        ks = KrylovSolver(A, preconditioner=None, maxiter=2)
        with pytest.raises(KrylovConvergenceError) as exc:
            ks.solve_numpy(b)
        err = exc.value
        assert err.method == "bicgstab"
        assert err.n == 40
        assert err.iterations <= 2
        assert err.residual > err.tol
        assert err.tol == pytest.approx(1e-10)
        assert "fallback=True" in str(err)

    def test_failure_emits_obs_event(self):
        A, b = self._hard_system()
        rec = TraceRecorder(test="krylov-failure")
        ks = KrylovSolver(A, preconditioner=None, maxiter=2, recorder=rec)
        with pytest.raises(KrylovConvergenceError):
            ks.solve_numpy(b)
        events = [e.event for e in rec.solver_events]
        assert events == ["factorize", "failure"]
        failure = rec.solver_events[-1]
        assert failure.solver == "sparse-krylov"
        assert failure.iterations is not None and failure.iterations <= 2
        assert failure.residual is not None and failure.residual > 1e-10

    def test_fallback_completes_with_direct_solve(self):
        A, b = self._hard_system()
        rec = TraceRecorder(test="krylov-fallback")
        ks = KrylovSolver(
            A, preconditioner=None, maxiter=2, fallback=True, recorder=rec
        )
        x = ks.solve_numpy(b)
        # The fallback path IS a direct splu solve — bitwise equal.
        np.testing.assert_array_equal(
            x, spla.splu(sp.csc_matrix(A)).solve(b)
        )
        assert ks.n_fallbacks == 1
        assert ks.n_factorizations == 2  # preconditioner + lazy splu
        assert [e.event for e in rec.solver_events] == [
            "factorize", "fallback",
        ]

    def test_fallback_gradient_still_matches_direct(self):
        # Even when every solve falls back, the implicit adjoint holds.
        A, b = self._hard_system()
        ks = KrylovSolver(A, preconditioner=None, maxiter=2, fallback=True)
        g_it = _grad_of_loss(ks, b)
        g_ref = _grad_of_loss(SparseLUSolver(A), b)
        assert ks.n_fallbacks == 2  # forward + adjoint
        np.testing.assert_allclose(g_it, g_ref, rtol=1e-12, atol=1e-14)

    def test_never_silently_unconverged(self):
        # Every returned solution satisfies the true-residual contract —
        # it is re-checked with one extra matvec after "convergence".
        A, rng = _system(30, seed=13)
        b = rng.standard_normal(30)
        for method in ("bicgstab", "gmres"):
            ks = KrylovSolver(A, method=method)
            x = ks.solve_numpy(b)
            rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
            assert rel <= 10 * ks.tol, f"{method}: residual {rel:.3e}"

    def test_success_and_adjoint_events_carry_iterations(self):
        A, rng = _system(seed=14)
        rec = TraceRecorder(test="krylov-events")
        ks = KrylovSolver(A, recorder=rec)
        _grad_of_loss(ks, rng.standard_normal(M))
        events = [e.event for e in rec.solver_events]
        assert events == ["factorize", "solve", "adjoint"]
        for e in rec.solver_events[1:]:
            assert e.iterations >= 1
            assert e.residual is not None and e.residual <= 10 * ks.tol
            assert e.nnz == ks.nnz

    def test_bicgstab_breakdown_restart_on_boundary_supported_rhs(self):
        # Regression: collocation right-hand sides live on Dirichlet rows
        # only; the equilibrated ILU solves those rows exactly in one
        # step, making the residual exactly orthogonal to the shadow
        # vector r̂ = b (rho == 0).  The recurrence must restart with a
        # fresh shadow vector and converge, not report breakdown.
        from repro.cloud.square import SquareCloud
        from repro.pde.laplace import LaplaceControlProblem

        problem = LaplaceControlProblem(SquareCloud(12), backend="local")
        A = problem.system
        b = np.zeros(A.shape[0])
        b[problem.cloud.boundary] = 1.0

        ks = KrylovSolver(A)  # bicgstab + equilibrated ILU
        x = ks.solve_numpy(b)
        ref = spla.splu(sp.csc_matrix(A)).solve(b)
        np.testing.assert_allclose(x, ref, rtol=1e-7, atol=1e-9)

    def test_zero_rhs_short_circuits(self):
        A, _ = _system(seed=15)
        ks = KrylovSolver(A)
        np.testing.assert_array_equal(ks.solve_numpy(np.zeros(M)), 0.0)
        assert ks.last_iterations == 0


class TestRawIterations:
    """The bare bicgstab/gmres routines, without the solver wrapper."""

    @pytest.mark.parametrize("run", [bicgstab, gmres])
    def test_converges_on_identity_like_system(self, run):
        A, rng = _system(seed=16)
        b = rng.standard_normal(M)
        res = run(A.__matmul__, b)
        assert res.converged
        assert res.iterations >= 1
        assert len(res.residuals) >= 1
        assert res.residuals[-1] <= 1e-10

    @pytest.mark.parametrize("run", [bicgstab, gmres])
    def test_nonconvergence_reported_not_raised(self, run):
        A, rng = _system(40, seed=17)
        b = rng.standard_normal(40)
        res = run(A.__matmul__, b, maxiter=2)
        assert not res.converged
        assert res.iterations <= 2

    def test_gmres_restart_still_converges(self):
        A, rng = _system(30, seed=18)
        b = rng.standard_normal(30)
        res = gmres(A.__matmul__, b, restart=5)
        assert res.converged
        x_ref = spla.spsolve(sp.csc_matrix(A), b)
        np.testing.assert_allclose(res.x, x_ref, rtol=1e-7, atol=1e-9)


class _DenseDuck:
    """Duck-types a sparse matrix (has ``toarray``) but is dense."""

    def __init__(self, A: np.ndarray) -> None:
        self._A = A

    def toarray(self) -> np.ndarray:
        return self._A

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._A, dtype=dtype)


class TestMakeLinearSolverDispatch:
    def test_dense_direct_is_lu(self):
        A, _ = _system()
        assert isinstance(make_linear_solver(A.toarray()), LUSolver)

    @pytest.mark.parametrize(
        "convert",
        [sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.csr_array],
        ids=["csr_matrix", "csc_matrix", "coo_matrix", "csr_array"],
    )
    def test_sparse_direct_is_sparse_lu(self, convert):
        A, _ = _system()
        assert isinstance(make_linear_solver(convert(A)), SparseLUSolver)

    @pytest.mark.parametrize(
        "convert",
        [sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.csr_array],
        ids=["csr_matrix", "csc_matrix", "coo_matrix", "csr_array"],
    )
    def test_sparse_iterative_is_krylov(self, convert):
        A, _ = _system()
        s = make_linear_solver(convert(A), method="iterative")
        assert isinstance(s, KrylovSolver)

    def test_iterative_options_are_forwarded(self):
        A, _ = _system()
        s = make_linear_solver(
            A, method="iterative",
            preconditioner="jacobi", tol=1e-8, maxiter=77,
        )
        assert s.preconditioner == "jacobi"
        assert s.tol == 1e-8
        assert s.maxiter == 77

    def test_dense_iterative_raises(self):
        A, _ = _system()
        with pytest.raises(TypeError, match="scipy.sparse"):
            make_linear_solver(A.toarray(), method="iterative")

    def test_direct_with_options_raises(self):
        A, _ = _system()
        with pytest.raises(TypeError, match="unexpected options"):
            make_linear_solver(A, tol=1e-8)

    def test_unknown_method_raises(self):
        A, _ = _system()
        with pytest.raises(ValueError, match="direct.*iterative"):
            make_linear_solver(A, method="banana")

    def test_duck_typed_dense_goes_dense(self):
        # Exposing ``toarray`` is not enough to count as sparse; dispatch
        # follows scipy.sparse.issparse, like every other consumer here.
        A, _ = _system()
        duck = _DenseDuck(A.toarray())
        assert not sp.issparse(duck)
        assert isinstance(make_linear_solver(duck), LUSolver)
        with pytest.raises(TypeError, match="scipy.sparse"):
            make_linear_solver(duck, method="iterative")


class TestKrylovSolverValidation:
    def test_dense_matrix_raises_type_error(self):
        with pytest.raises(TypeError, match="scipy.sparse"):
            KrylovSolver(np.eye(4))

    def test_nonsquare_raises(self):
        with pytest.raises(ValueError, match="square"):
            KrylovSolver(sp.csr_matrix(np.ones((3, 4))))

    def test_unknown_method_raises(self):
        A, _ = _system()
        with pytest.raises(ValueError, match="unknown Krylov method"):
            KrylovSolver(A, method="jacobi-davidson")

    def test_unknown_preconditioner_raises(self):
        A, _ = _system()
        with pytest.raises(ValueError, match="unknown preconditioner"):
            KrylovSolver(A, preconditioner="amg")
