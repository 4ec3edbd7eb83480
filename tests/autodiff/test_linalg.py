"""Tests for differentiable linear algebra — the DP-enabling primitives."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.autodiff import ops
from repro.autodiff.check import numerical_gradient
from repro.autodiff.functional import grad, value_and_grad
from repro.autodiff.linalg import (
    LUSolver,
    RowScaledSystem,
    lstsq,
    norm,
    row_scaled_solve,
    solve,
)
from repro.autodiff.sparse import (
    SparseLUSolver,
    make_linear_solver,
    sparse_matvec,
    sparse_pattern_solve,
    sparse_solve,
)
from repro.autodiff.tensor import tensor
from repro.obs.metrics import use_registry

RNG = np.random.default_rng(3)
N = 6
A = RNG.standard_normal((N, N)) + N * np.eye(N)
SPD = A @ A.T + np.eye(N)
B = RNG.standard_normal(N)
B2 = RNG.standard_normal((N, 2))
AS = sp.csr_matrix(A)


class TestSolve:
    def test_forward_matches_numpy(self):
        x = solve(A, B)
        np.testing.assert_allclose(x.data, np.linalg.solve(A, B), rtol=1e-12)

    def test_forward_block_rhs(self):
        x = solve(A, B2)
        np.testing.assert_allclose(x.data, np.linalg.solve(A, B2), rtol=1e-12)

    def test_grad_wrt_rhs(self):
        def f(b):
            return ops.sum_(ops.square(solve(A, b)))

        g = grad(f)(B)
        num = numerical_gradient(lambda b: float(f(b).data), B)
        np.testing.assert_allclose(g, num, rtol=1e-5, atol=1e-8)

    def test_grad_wrt_matrix(self):
        def f(M):
            return ops.sum_(ops.square(solve(M, B)))

        g = grad(f)(A)
        num = numerical_gradient(lambda M: float(f(M).data), A)
        np.testing.assert_allclose(g, num, rtol=1e-4, atol=1e-7)

    def test_grad_wrt_matrix_and_rhs_jointly(self):
        w = RNG.standard_normal(N)

        def f(M, b):
            return ops.sum_(solve(M, b) * w)

        _, (gM, gb) = value_and_grad(f, argnums=(0, 1))(A, B)
        numM = numerical_gradient(lambda M: float(f(M, B).data), A.copy())
        numb = numerical_gradient(lambda b: float(f(A, b).data), B.copy())
        np.testing.assert_allclose(gM, numM, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(gb, numb, rtol=1e-5, atol=1e-8)

    def test_cholesky_path_on_spd(self):
        x = solve(SPD, B, assume_a="pos")
        np.testing.assert_allclose(x.data, np.linalg.solve(SPD, B), rtol=1e-10)

    def test_cholesky_grad(self):
        def f(b):
            return ops.sum_(ops.square(solve(SPD, b, assume_a="pos")))

        g = grad(f)(B)
        num = numerical_gradient(lambda b: float(f(b).data), B)
        np.testing.assert_allclose(g, num, rtol=1e-5, atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("kind", ["posdef", "sym", "POS", ""])
    def test_rejects_unknown_assume_a(self, kind):
        # A typo must not silently fall through to the general LU path.
        with pytest.raises(ValueError, match="assume_a"):
            solve(SPD, B, assume_a=kind)

    def test_solve_through_chain(self):
        # The DP-for-Laplace pattern: c -> rhs -> solve -> quadratic cost.
        S = RNG.standard_normal((N, 3))
        w = np.abs(RNG.standard_normal(N)) + 0.1

        def f(c):
            u = solve(A, ops.matmul(S, c) + B)
            return ops.sum_(w * ops.square(u))

        c0 = RNG.standard_normal(3)
        g = grad(f)(c0)
        num = numerical_gradient(lambda c: float(f(c).data), c0)
        np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-9)


def _with_unit_rows(C, rows):
    C = C.copy()
    C[rows] = 0.0
    C[rows, rows] = 1.0
    return C


class TestRowScaledSolve:
    """``(diag(s1)·M1 + diag(s2)·M2 + C) x = b`` with only s1, s2, b on the tape.

    Every test covers a ``C`` without unit rows (the full solve) and one
    whose rows ``UNIT`` are unit rows, which the system condenses out;
    the scales vanish there and ``b`` does not.  Parameter ids: ``vec`` /
    ``block`` for the full system, ``condensed-*`` for the other.
    """

    _rng = np.random.default_rng(11)
    M1 = _rng.standard_normal((N, N))
    M2 = _rng.standard_normal((N, N))
    UNIT = np.array([1, 4])
    KINDS = ("full", "condensed")
    CASES = pytest.mark.parametrize(
        "kind, rhs",
        [(k, r) for k in KINDS for r in (B, B2)],
        ids=["vec", "block", "condensed-vec", "condensed-block"],
    )

    def case(self, kind):
        # C = A is non-symmetric, so a wrong transpose flag is caught.
        unit = self.UNIT if kind == "condensed" else np.array([], dtype=int)
        C = _with_unit_rows(A, unit)
        s1 = self._rng.uniform(0.5, 1.5, N)
        s2 = self._rng.uniform(-1.5, -0.5, N)
        s1[unit] = s2[unit] = 0.0
        system = RowScaledSystem(self.M1, self.M2, C)
        dense = s1[:, None] * self.M1 + s2[:, None] * self.M2 + C
        return SimpleNamespace(s1=s1, s2=s2, system=system, dense=dense, unit=unit)

    def loss(self, solver, system, w):
        def f(s1, s2, b):
            return ops.sum_(ops.square(solver(s1, s2, system, b)) * w)

        return f

    @pytest.mark.parametrize("kind", KINDS)
    def test_detects_unit_rows(self, kind):
        case = self.case(kind)
        np.testing.assert_array_equal(case.system.fixed, case.unit)
        assert case.system.free.size + case.unit.size == N
        np.testing.assert_array_equal(case.system.C, _with_unit_rows(A, case.unit))

    @CASES
    def test_forward_matches_dense(self, kind, rhs):
        case = self.case(kind)
        x = row_scaled_solve(case.s1, case.s2, case.system, rhs)
        np.testing.assert_allclose(
            x.data, np.linalg.solve(case.dense, rhs), rtol=1e-12
        )
        # Unit rows pass b through exactly.
        np.testing.assert_array_equal(x.data[case.unit], rhs[case.unit])

    def test_without_unit_rows_is_the_plain_lu_solve(self):
        # The same column-major assembly and LU as a plain dense solve,
        # bit for bit.
        case = self.case("full")
        Af = np.multiply(case.s1[:, None], self.M1, order="F")
        Af += case.s2[:, None] * self.M2
        Af += A
        lu = sla.lu_factor(Af, check_finite=False)
        x = row_scaled_solve(case.s1, case.s2, case.system, B)
        assert np.array_equal(x.data, sla.lu_solve(lu, B, check_finite=False))

    @CASES
    def test_numpy_factor_matches_the_primitive_bitwise(self, kind, rhs):
        # ``system.factor`` is the kernel of the NumPy NS solve; a block
        # solve matches its columns solved one at a time.
        case = self.case(kind)
        x = row_scaled_solve(case.s1, case.s2, case.system, rhs).data
        lu = case.system.factor(case.s1, case.s2)
        assert np.array_equal(x, lu.solve(rhs))
        if rhs.ndim == 2:
            for j in range(rhs.shape[1]):
                assert np.array_equal(x[:, j], lu.solve(rhs[:, j].copy()))

    @CASES
    def test_grads_match_unstructured_reference(self, kind, rhs, row_scaled_reference):
        case = self.case(kind)
        w = self._rng.uniform(0.5, 2.0, rhs.shape)
        args = (case.s1, case.s2, rhs)
        v, g = value_and_grad(
            self.loss(row_scaled_solve, case.system, w), argnums=(0, 1, 2)
        )(*args)
        v_ref, g_ref = value_and_grad(
            self.loss(row_scaled_reference, case.system, w), argnums=(0, 1, 2)
        )(*args)
        assert v == pytest.approx(v_ref, rel=1e-12)
        for name, a, b in zip(("s1", "s2", "b"), g, g_ref):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12, err_msg=name)

    @CASES
    def test_grads_match_central_fd(self, kind, rhs):
        # ``b̄`` includes the unit rows, where ``b`` is nonzero (the NS
        # control enters only there).  The scales are perturbed on the
        # other rows only: a scale on a unit row is rejected.
        case = self.case(kind)
        assert np.all(rhs[case.unit] != 0.0)
        w = self._rng.uniform(0.5, 2.0, rhs.shape)
        f = self.loss(row_scaled_solve, case.system, w)
        _, grads = value_and_grad(f, argnums=(0, 1, 2))(case.s1, case.s2, rhs)
        free = case.system.free

        def fd_on_free(pos):
            def value(sF):
                args = [case.s1.copy(), case.s2.copy(), rhs]
                args[pos][free] = sF
                return float(f(*args).data)

            return numerical_gradient(value, [case.s1, case.s2][pos][free].copy())

        numb = numerical_gradient(
            lambda b: float(f(case.s1, case.s2, b).data), rhs.copy()
        )
        for name, a, b in (
            ("s1", grads[0][free], fd_on_free(0)),
            ("s2", grads[1][free], fd_on_free(1)),
            ("b", grads[2], numb),
        ):
            np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-9, err_msg=name)

    def test_one_factorisation_and_one_adjoint_solve(self, monkeypatch):
        # Both RHS columns share one LU; the three VJPs share one
        # transposed solve; the backward pass never re-factorises.
        for kind in self.KINDS:
            case = self.case(kind)
            real = case.system._getrs
            transposed = []

            def counting(lu, piv, b, trans=0, **kw):
                transposed.append(trans)
                return real(lu, piv, b, trans=trans, **kw)

            monkeypatch.setattr(case.system, "_getrs", counting)
            with use_registry() as reg:
                _, grads = value_and_grad(
                    self.loss(row_scaled_solve, case.system, np.ones_like(B2)),
                    argnums=(0, 1, 2),
                )(case.s1, case.s2, B2)
                assert reg.counter("linalg.dense.factorizations").value == 1
            assert transposed == [0, 0, 1], kind  # per column, one adjoint block
            assert all(np.all(np.isfinite(g)) for g in grads)

    def test_repeated_backward_sees_the_new_cotangent(self):
        # W is shared between the VJPs of one backward step, never
        # across steps with a different cotangent.
        for kind in self.KINDS:
            case = self.case(kind)
            b = tensor(B2, requires_grad=True)
            x = row_scaled_solve(case.s1, case.s2, case.system, b)
            g1, g2 = np.ones_like(B2), self._rng.standard_normal(B2.shape)
            x.backward(g1)
            x.backward(g2)
            At = case.dense.T
            np.testing.assert_allclose(
                b.grad, np.linalg.solve(At, g1) + np.linalg.solve(At, g2),
                rtol=1e-10, err_msg=kind,
            )

    @pytest.mark.parametrize("scale", [0, 1], ids=["s1", "s2"])
    def test_rejects_scale_on_unit_row(self, scale):
        # Condensation assumes x_D = b_D; a scale there would make that
        # silently wrong.
        system = self.case("condensed").system
        scales = [np.zeros(N), np.zeros(N)]
        scales[scale][self.UNIT[0]] = 1e-3
        with pytest.raises(ValueError, match="unit row"):
            row_scaled_solve(*scales, system, B)
        with pytest.raises(ValueError, match="unit row"):
            system.factor(*scales)

    @CASES
    def test_factor_shift_matches_explicit_diagonal(self, kind, rhs):
        # The shift is added to the assembled diagonal (the DAL adjoint's
        # Robin term); on the free rows only, so condensation still holds.
        case = self.case(kind)
        shift = self._rng.uniform(1.0, 3.0, N)
        shift[case.unit] = 0.0
        x = case.system.factor(case.s1, case.s2, shift).solve(rhs)
        lu = sla.lu_factor(case.dense + np.diag(shift), check_finite=False)
        ref = sla.lu_solve(lu, rhs, check_finite=False)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rejects_shift_on_unit_row(self):
        case = self.case("condensed")
        shift = np.zeros(N)
        shift[self.UNIT[0]] = 1e-3
        with pytest.raises(ValueError, match="shift is nonzero on a unit row"):
            case.system.factor(case.s1, case.s2, shift)

    def test_zero_dirichlet_data_skips_the_fd_block_exactly(self):
        # With b_D = 0 (either sign) the A_FD products are skipped; the
        # solve equals the one that subtracts them explicitly.
        case = self.case("condensed")
        lu = case.system.factor(case.s1, case.s2)
        b = self._rng.standard_normal(N)
        b[self.UNIT] = [0.0, -0.0]
        F, D = case.system.free, case.system.fixed
        (_, M1FD), (_, M2FD) = case.system._m_blocks
        rhs = b[F] - (
            lu.s1F * (M1FD @ b[D])
            + lu.s2F * (M2FD @ b[D])
            + case.system._c_blocks[1] @ b[D]
        )
        ref = np.empty(N)
        ref[D] = b[D]
        ref[F] = lu._getrs(rhs, 0)
        np.testing.assert_array_equal(lu.solve(b), ref)

    def test_singular_ff_block_raises(self):
        # A zero row among the free rows of C makes A_FF exactly singular
        # when both scales vanish: getrf reports it, the factorisation
        # raises instead of solving to inf/NaN.
        C = _with_unit_rows(A, self.UNIT)
        C[0] = 0.0
        system = RowScaledSystem(self.M1, self.M2, C)
        assert 0 in system.free
        zeros = np.zeros(N)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            system.factor(zeros, zeros)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            row_scaled_solve(zeros, zeros, system, B)

    def test_with_constant_matches_a_fresh_system(self):
        case = self.case("condensed")
        for C in (_with_unit_rows(2.0 * A, self.UNIT), A):  # same / no unit rows
            got = case.system.with_constant(C).factor(case.s1, case.s2).solve(B2)
            ref = RowScaledSystem(self.M1, self.M2, C).factor(case.s1, case.s2)
            assert np.array_equal(got, ref.solve(B2))

    def test_rejects_tape_matrix(self):
        with pytest.raises(TypeError, match="constant"):
            RowScaledSystem(tensor(self.M1, requires_grad=True), self.M2, A)
        with pytest.raises(TypeError, match="RowScaledSystem"):
            row_scaled_solve(np.ones(N), np.ones(N), A, B)

    def test_rejects_shape_mismatch(self):
        case = self.case("condensed")
        s1, s2, system = case.s1, case.s2, case.system
        with pytest.raises(ValueError, match="scales"):
            row_scaled_solve(s1[:-1], s2, system, B)
        with pytest.raises(ValueError, match="C has shape"):
            RowScaledSystem(self.M1, self.M2, A[:-1])
        with pytest.raises(ValueError, match="M2 has shape"):
            RowScaledSystem(self.M1, self.M2[:-1, :-1], A)
        with pytest.raises(ValueError, match="C has shape"):
            system.with_constant(A[:-1, :-1])
        with pytest.raises(ValueError, match="b has shape"):
            row_scaled_solve(s1, s2, system, B[:-1])


class TestLUSolver:
    def test_matches_solve(self):
        lus = LUSolver(A)
        np.testing.assert_allclose(lus(B).data, np.linalg.solve(A, B), rtol=1e-12)

    def test_grad_matches_fresh_solve(self):
        lus = LUSolver(A)

        def f_cached(b):
            return ops.sum_(ops.square(lus(b)))

        def f_fresh(b):
            return ops.sum_(ops.square(solve(A, b)))

        g1 = grad(f_cached)(B)
        g2 = grad(f_fresh)(B)
        np.testing.assert_allclose(g1, g2, rtol=1e-12)

    def test_solve_numpy_and_transposed(self):
        lus = LUSolver(A)
        np.testing.assert_allclose(
            lus.solve_numpy(B), np.linalg.solve(A, B), rtol=1e-12
        )
        np.testing.assert_allclose(
            lus.solve_transposed(B), np.linalg.solve(A.T, B), rtol=1e-12
        )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            LUSolver(np.ones((2, 3)))

    def test_reuse_many_rhs(self):
        lus = LUSolver(A)
        for _ in range(5):
            b = RNG.standard_normal(N)
            np.testing.assert_allclose(
                lus.solve_numpy(b), np.linalg.solve(A, b), rtol=1e-10
            )


class TestSparseSolve:
    def test_forward_matches_dense(self):
        x = sparse_solve(AS, B)
        np.testing.assert_allclose(x.data, np.linalg.solve(A, B), rtol=1e-10)

    def test_forward_block_rhs(self):
        x = sparse_solve(AS, B2)
        np.testing.assert_allclose(x.data, np.linalg.solve(A, B2), rtol=1e-10)

    def test_grad_wrt_rhs(self):
        def f(b):
            return ops.sum_(ops.square(sparse_solve(AS, b)))

        g = grad(f)(B)
        num = numerical_gradient(lambda b: float(f(b).data), B)
        np.testing.assert_allclose(g, num, rtol=1e-5, atol=1e-8)

    def test_grad_matches_dense_solve(self):
        # The sparse VJP is the transposed solve with the same
        # factorisation; it must agree with the dense adjoint exactly.
        def f_sparse(b):
            return ops.sum_(ops.square(sparse_solve(AS, b)))

        def f_dense(b):
            return ops.sum_(ops.square(solve(A, b)))

        np.testing.assert_allclose(
            grad(f_sparse)(B), grad(f_dense)(B), rtol=1e-9
        )

    def test_transposed_path_through_chain(self):
        # Non-symmetric A so a wrong trans flag is caught: the VJP solves
        # Aᵀw = g, which differs from A⁻¹g unless A = Aᵀ.
        assert not np.allclose(A, A.T)
        w = RNG.standard_normal(N)

        def f(b):
            return ops.sum_(sparse_solve(AS, b) * w)

        g = grad(f)(B)
        # Analytic gradient: A⁻ᵀ w.
        np.testing.assert_allclose(g, np.linalg.solve(A.T, w), rtol=1e-9)

    def test_rejects_dense_matrix(self):
        with pytest.raises(TypeError, match="sparse"):
            sparse_solve(A, B)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sparse_solve(sp.csr_matrix(np.ones((2, 3))), np.ones(2))


class TestSparseMatvec:
    def test_forward(self):
        out = sparse_matvec(AS, B)
        np.testing.assert_allclose(out.data, A @ B, rtol=1e-12)

    def test_grad_is_transpose_product(self):
        w = RNG.standard_normal(N)

        def f(x):
            return ops.sum_(sparse_matvec(AS, x) * w)

        np.testing.assert_allclose(grad(f)(B), A.T @ w, rtol=1e-12)

    def test_rejects_dense(self):
        with pytest.raises(TypeError, match="sparse"):
            sparse_matvec(A, B)


class TestSparseLUSolver:
    def test_matches_dense_lusolver(self):
        s = SparseLUSolver(AS)
        d = LUSolver(A)
        np.testing.assert_allclose(s(B).data, d(B).data, rtol=1e-10)

    def test_factorizes_once(self):
        s = SparseLUSolver(AS)
        for _ in range(4):
            s(RNG.standard_normal(N))
            s.solve_numpy(RNG.standard_normal(N))
            s.solve_transposed(RNG.standard_normal(N))
        assert s.n_factorizations == 1

    def test_grad_wrt_rhs(self):
        s = SparseLUSolver(AS)

        def f(b):
            return ops.sum_(ops.square(s(b)))

        g = grad(f)(B)
        num = numerical_gradient(lambda b: float(f(b).data), B)
        np.testing.assert_allclose(g, num, rtol=1e-5, atol=1e-8)

    def test_solve_transposed(self):
        s = SparseLUSolver(AS)
        np.testing.assert_allclose(
            s.solve_transposed(B), np.linalg.solve(A.T, B), rtol=1e-10
        )

    def test_rejects_dense(self):
        with pytest.raises(TypeError, match="sparse"):
            SparseLUSolver(A)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SparseLUSolver(sp.csr_matrix(np.ones((2, 3))))

    def test_make_linear_solver_dispatch(self):
        assert isinstance(make_linear_solver(AS), SparseLUSolver)
        assert isinstance(make_linear_solver(A), LUSolver)


class TestSparsePatternSolve:
    """Solve with Tensor-valued matrix entries on a fixed pattern."""

    def setup_method(self):
        self.rows, self.cols = AS.nonzero()
        self.rows = self.rows.astype(np.int64)
        self.cols = self.cols.astype(np.int64)
        self.data0 = np.asarray(
            AS[self.rows, self.cols], dtype=np.float64
        ).ravel()

    def test_forward_matches_dense(self):
        x = sparse_pattern_solve(self.rows, self.cols, (N, N), self.data0, B)
        np.testing.assert_allclose(x.data, np.linalg.solve(A, B), rtol=1e-10)

    def test_grad_wrt_rhs(self):
        def f(b):
            return ops.sum_(
                ops.square(
                    sparse_pattern_solve(
                        self.rows, self.cols, (N, N), self.data0, b
                    )
                )
            )

        g = grad(f)(B)
        num = numerical_gradient(lambda b: float(f(b).data), B)
        np.testing.assert_allclose(g, num, rtol=1e-5, atol=1e-8)

    def test_grad_wrt_matrix_values(self):
        # The sparse restriction of the dense Ā = -w xᵀ formula.
        def f(d):
            return ops.sum_(
                ops.square(
                    sparse_pattern_solve(self.rows, self.cols, (N, N), d, B)
                )
            )

        g = grad(f)(self.data0)
        num = numerical_gradient(lambda d: float(f(d).data), self.data0.copy())
        np.testing.assert_allclose(g, num, rtol=1e-4, atol=1e-7)

    def test_grad_wrt_values_and_rhs_jointly(self):
        w = RNG.standard_normal(N)

        def f(d, b):
            return ops.sum_(
                sparse_pattern_solve(self.rows, self.cols, (N, N), d, b) * w
            )

        _, (gd, gb) = value_and_grad(f, argnums=(0, 1))(self.data0, B)
        numd = numerical_gradient(
            lambda d: float(f(d, B).data), self.data0.copy()
        )
        numb = numerical_gradient(lambda b: float(f(self.data0, b).data), B)
        np.testing.assert_allclose(gd, numd, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(gb, numb, rtol=1e-5, atol=1e-8)

    def test_block_rhs_grad_wrt_values(self):
        def f(d):
            return ops.sum_(
                ops.square(
                    sparse_pattern_solve(self.rows, self.cols, (N, N), d, B2)
                )
            )

        g = grad(f)(self.data0)
        num = numerical_gradient(lambda d: float(f(d).data), self.data0.copy())
        np.testing.assert_allclose(g, num, rtol=1e-4, atol=1e-7)

    def test_rejects_pattern_mismatch(self):
        with pytest.raises(ValueError, match="pattern"):
            sparse_pattern_solve(
                self.rows, self.cols, (N, N), self.data0[:-1], B
            )


class TestLocalBackendGradient:
    """DP gradient on the sparse Laplace backend vs finite differences."""

    def test_dp_gradient_matches_fd(self):
        from repro.cloud.square import SquareCloud
        from repro.control.dp import LaplaceDP
        from repro.pde.laplace import LaplaceControlProblem

        problem = LaplaceControlProblem(SquareCloud(10), backend="local")
        oracle = LaplaceDP(problem)
        c = 0.1 * np.sin(np.linspace(0, np.pi, problem.n_control))
        _, g = oracle.value_and_grad(c)
        num = numerical_gradient(oracle.value, c, eps=1e-6)
        denom = max(np.linalg.norm(num), 1e-12)
        rel = np.linalg.norm(g - num) / denom
        assert rel <= 1e-6, f"relative gradient error {rel:.2e}"


class TestLstsq:
    def test_forward_overdetermined(self):
        M = RNG.standard_normal((10, 4))
        b = RNG.standard_normal(10)
        x = lstsq(M, b)
        expected, *_ = np.linalg.lstsq(M, b, rcond=None)
        np.testing.assert_allclose(x.data, expected, rtol=1e-10)

    def test_grad_wrt_rhs(self):
        M = RNG.standard_normal((10, 4))
        b = RNG.standard_normal(10)

        def f(bb):
            return ops.sum_(ops.square(lstsq(M, bb)))

        g = grad(f)(b)
        num = numerical_gradient(lambda bb: float(f(bb).data), b)
        np.testing.assert_allclose(g, num, rtol=1e-5, atol=1e-8)


class TestNorm:
    def test_l2_value(self):
        assert abs(float(norm(B).data) - np.linalg.norm(B)) < 1e-12

    def test_l2_grad(self):
        g = grad(lambda x: norm(x))(B)
        np.testing.assert_allclose(g, B / np.linalg.norm(B), rtol=1e-10)

    def test_l1_value(self):
        assert abs(float(norm(B, ord=1).data) - np.abs(B).sum()) < 1e-12

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            norm(B, ord=3)
