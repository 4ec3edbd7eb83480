"""Tests for the linear PDE solver (nodal path) and its LU caching."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.cloud.base import BoundaryKind
from repro.cloud.square import SquareCloud
from repro.pde.discrete import FieldBCs, assemble_field_system
from repro.rbf.assembly import LinearOperator2D
from repro.rbf.kernels import polyharmonic
from repro.rbf.solver import (
    BoundaryCondition,
    LinearPDEProblem,
    LocalRBFSolver,
    RBFSolver,
    solve_pde,
)


def dirichlet_everywhere(value_fn):
    return {
        g: BoundaryCondition("dirichlet", value=value_fn)
        for g in ("top", "bottom", "left", "right")
    }


class TestLaplaceSolve:
    def exact(self, p):
        return np.sin(np.pi * p[:, 0]) * np.sinh(np.pi * p[:, 1]) / np.sinh(np.pi)

    def test_matches_analytic(self, square_cloud_16):
        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            bcs=dirichlet_everywhere(self.exact),
        )
        u = solve_pde(square_cloud_16, prob)
        err = np.max(np.abs(u - self.exact(square_cloud_16.points)))
        assert err < 0.02

    def test_convergence(self):
        errs = []
        for nx in (8, 16):
            cloud = SquareCloud(nx)
            prob = LinearPDEProblem(
                operator=LinearOperator2D(lap=1.0),
                bcs=dirichlet_everywhere(self.exact),
            )
            u = solve_pde(cloud, prob)
            errs.append(np.max(np.abs(u - self.exact(cloud.points))))
        assert errs[1] < errs[0]

    def test_boundary_values_exact(self, square_cloud_16):
        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            bcs=dirichlet_everywhere(self.exact),
        )
        u = solve_pde(square_cloud_16, prob)
        b = square_cloud_16.boundary
        np.testing.assert_allclose(
            u[b], self.exact(square_cloud_16.points[b]), atol=1e-10
        )


class TestBoundaryCondition:
    def test_constant_value(self):
        bc = BoundaryCondition("dirichlet", value=2.5)
        np.testing.assert_allclose(bc.evaluate(np.zeros((4, 2))), 2.5)

    def test_callable_value(self):
        bc = BoundaryCondition("dirichlet", value=lambda p: p[:, 0] ** 2)
        pts = np.array([[2.0, 0.0], [3.0, 0.0]])
        np.testing.assert_allclose(bc.evaluate(pts), [4.0, 9.0])

    def test_array_value(self):
        bc = BoundaryCondition("neumann", value=np.array([1.0, 2.0]))
        np.testing.assert_allclose(bc.evaluate(np.zeros((2, 2))), [1.0, 2.0])

    def test_wrong_length_raises(self):
        bc = BoundaryCondition("dirichlet", value=lambda p: np.zeros(3))
        with pytest.raises(ValueError):
            bc.evaluate(np.zeros((4, 2)))


class TestNeumannAndRobin:
    def test_neumann_problem(self):
        # u = x(1-x)/2 + y: Δu = -1; top (y=1): ∂u/∂n = ∂u/∂y = 1.
        kinds = {
            "internal": BoundaryKind.INTERNAL,
            "bottom": BoundaryKind.DIRICHLET,
            "left": BoundaryKind.DIRICHLET,
            "right": BoundaryKind.DIRICHLET,
            "top": BoundaryKind.NEUMANN,
        }
        cloud = SquareCloud(14, kinds=kinds)

        def exact(p):
            return p[:, 0] * (1 - p[:, 0]) / 2 + p[:, 1]

        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            source=-1.0,
            bcs={
                "bottom": BoundaryCondition("dirichlet", value=exact),
                "left": BoundaryCondition("dirichlet", value=exact),
                "right": BoundaryCondition("dirichlet", value=exact),
                "top": BoundaryCondition("neumann", value=1.0),
            },
        )
        u = solve_pde(cloud, prob)
        assert np.max(np.abs(u - exact(cloud.points))) < 0.02

    def test_robin_problem(self):
        # u = y: top Robin with β=2: ∂u/∂n + 2u = 1 + 2 = 3.
        kinds = {
            "internal": BoundaryKind.INTERNAL,
            "bottom": BoundaryKind.DIRICHLET,
            "left": BoundaryKind.DIRICHLET,
            "right": BoundaryKind.DIRICHLET,
            "top": BoundaryKind.ROBIN,
        }
        cloud = SquareCloud(12, kinds=kinds)

        def exact(p):
            return p[:, 1]

        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            bcs={
                "bottom": BoundaryCondition("dirichlet", value=exact),
                "left": BoundaryCondition("dirichlet", value=exact),
                "right": BoundaryCondition("dirichlet", value=exact),
                "top": BoundaryCondition("robin", value=3.0, beta=2.0),
            },
        )
        u = solve_pde(cloud, prob)
        assert np.max(np.abs(u - exact(cloud.points))) < 1e-6

    def test_kind_mismatch_raises(self, square_cloud_12):
        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            bcs={
                "top": BoundaryCondition("neumann", value=0.0),
                "bottom": BoundaryCondition("dirichlet", value=0.0),
                "left": BoundaryCondition("dirichlet", value=0.0),
                "right": BoundaryCondition("dirichlet", value=0.0),
            },
        )
        with pytest.raises(ValueError, match="ordered as"):
            RBFSolver(square_cloud_12).solve(prob)

    def test_missing_bc_raises(self, square_cloud_12):
        prob = LinearPDEProblem(operator=LinearOperator2D(lap=1.0), bcs={})
        with pytest.raises(ValueError, match="missing boundary"):
            RBFSolver(square_cloud_12).solve(prob)


class TestCaching:
    def test_cached_solve_matches_fresh(self, square_cloud_12):
        solver = RBFSolver(square_cloud_12)

        def make(v):
            return LinearPDEProblem(
                operator=LinearOperator2D(lap=1.0),
                bcs={
                    g: BoundaryCondition("dirichlet", value=float(v))
                    for g in ("top", "bottom", "left", "right")
                },
            )

        u1 = solver.solve(make(1.0), cache_key="k")
        u2 = solver.solve(make(2.0), cache_key="k")  # reuses the LU
        u2_fresh = solver.solve(make(2.0))
        np.testing.assert_allclose(u2, u2_fresh, rtol=1e-12)
        np.testing.assert_allclose(u2, 2 * u1, rtol=1e-9)

    def test_clear_cache(self, square_cloud_12):
        solver = RBFSolver(square_cloud_12)
        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            bcs={
                g: BoundaryCondition("dirichlet", value=0.0)
                for g in ("top", "bottom", "left", "right")
            },
        )
        solver.solve(prob, cache_key="a")
        assert ("a", solver._cache_token()) in solver._lu_cache
        solver.clear_cache()
        assert not solver._lu_cache


def _dirichlet_problem(value=0.0):
    return LinearPDEProblem(
        operator=LinearOperator2D(lap=1.0),
        bcs={
            g: BoundaryCondition("dirichlet", value=value)
            for g in ("top", "bottom", "left", "right")
        },
    )


class TestFactorizationCounting:
    """Factorise-once/solve-many regression: the ``n_factorizations``
    counter proves the cache is actually hit across repeated solves."""

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_cache_hit_across_solves(self, square_cloud_12, solver_cls):
        solver = solver_cls(square_cloud_12)
        assert solver.n_factorizations == 0
        for v in (1.0, 2.0, 3.0):
            solver.solve(_dirichlet_problem(v), cache_key="loop")
        assert solver.n_factorizations == 1

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_no_key_no_cache(self, square_cloud_12, solver_cls):
        solver = solver_cls(square_cloud_12)
        solver.solve(_dirichlet_problem(1.0))
        solver.solve(_dirichlet_problem(2.0))
        assert solver.n_factorizations == 2

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_distinct_keys_factorize_separately(
        self, square_cloud_12, solver_cls
    ):
        solver = solver_cls(square_cloud_12)
        solver.solve(_dirichlet_problem(1.0), cache_key="a")
        solver.solve(_dirichlet_problem(1.0), cache_key="b")
        solver.solve(_dirichlet_problem(2.0), cache_key="a")
        assert solver.n_factorizations == 2

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_key_invalidates_on_new_cloud(self, solver_cls):
        # Same cache_key, different cloud objects: the discretisation
        # token must keep the two factorisations apart.
        s1 = solver_cls(SquareCloud(10))
        s2 = solver_cls(SquareCloud(10))
        assert s1._cache_token() != s2._cache_token()
        key = ("shared", s1._cache_token())
        s1.solve(_dirichlet_problem(1.0), cache_key="shared")
        assert key in s1._lu_cache
        assert ("shared", s2._cache_token()) not in s1._lu_cache

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_key_depends_on_kernel(self, square_cloud_12, solver_cls):
        s1 = solver_cls(square_cloud_12, kernel=polyharmonic(3))
        s2 = solver_cls(square_cloud_12, kernel=polyharmonic(5))
        assert s1._cache_token() != s2._cache_token()

    def test_local_token_depends_on_stencil_size(self, square_cloud_12):
        s1 = LocalRBFSolver(square_cloud_12, stencil_size=12)
        s2 = LocalRBFSolver(square_cloud_12, stencil_size=20)
        assert s1._cache_token() != s2._cache_token()

    def test_local_cached_solve_matches_dense(self, square_cloud_12):
        def exact(p):
            return np.sin(np.pi * p[:, 0]) * np.sinh(np.pi * p[:, 1]) / np.sinh(
                np.pi
            )

        prob = _dirichlet_problem(exact)
        u_dense = RBFSolver(square_cloud_12).solve(prob)
        local = LocalRBFSolver(square_cloud_12, stencil_size=25)
        u1 = local.solve(prob, cache_key="k")
        u2 = local.solve(prob, cache_key="k")
        np.testing.assert_allclose(u1, u2, rtol=1e-12)
        assert local.n_factorizations == 1
        assert np.max(np.abs(u1 - u_dense)) < 0.05


class TestSourceEvaluation:
    def test_callable_source(self, square_cloud_12):
        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            source=lambda p: p[:, 0],
            bcs={
                g: BoundaryCondition("dirichlet", value=0.0)
                for g in ("top", "bottom", "left", "right")
            },
        )
        rhs = RBFSolver(square_cloud_12).assemble_rhs(prob)
        interior = square_cloud_12.internal
        np.testing.assert_allclose(rhs[interior], square_cloud_12.x[interior])

    def test_scalar_source_broadcast(self, square_cloud_12):
        prob = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0),
            source=3.0,
            bcs={
                g: BoundaryCondition("dirichlet", value=0.0)
                for g in ("top", "bottom", "left", "right")
            },
        )
        rhs = RBFSolver(square_cloud_12).assemble_rhs(prob)
        np.testing.assert_allclose(rhs[square_cloud_12.internal], 3.0)


class TestSolveBlock:
    """Multi-RHS factorisation reuse: one LU serves an (N_rhs, n) block."""

    N_RHS = 5

    def _block(self, solver):
        rng = np.random.default_rng(17)
        return rng.standard_normal((self.N_RHS, solver.cloud.n))

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_one_factorisation_one_solve(self, square_cloud_12, solver_cls):
        solver = solver_cls(square_cloud_12)
        solver.solve_block(_dirichlet_problem(), self._block(solver))
        assert solver.n_factorizations == 1
        assert solver.n_solves == 1

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_cache_key_reuses_factors(self, square_cloud_12, solver_cls):
        solver = solver_cls(square_cloud_12)
        B = self._block(solver)
        solver.solve_block(_dirichlet_problem(), B, cache_key="k")
        solver.solve_block(_dirichlet_problem(), B, cache_key="k")
        assert solver.n_factorizations == 1
        assert solver.n_solves == 2

    def test_dense_block_matches_per_column(self, square_cloud_12):
        solver = RBFSolver(square_cloud_12)
        prob = _dirichlet_problem()
        B = self._block(solver)
        X = solver.solve_block(prob, B, cache_key="k")
        fac, _ = solver._factors(prob, "k", None)
        for i in range(self.N_RHS):
            xi = fac.solve_numpy(B[i])
            # Dense LAPACK multi-RHS reorders the substitutions, so
            # agreement is to rounding, not bitwise (unlike SuperLU).
            np.testing.assert_allclose(X[i], xi, rtol=0, atol=1e-12)

    def test_local_block_bitwise_matches_per_column(self, square_cloud_12):
        solver = LocalRBFSolver(square_cloud_12)
        prob = _dirichlet_problem()
        B = self._block(solver)
        X = solver.solve_block(prob, B, cache_key="k")
        fac, _ = solver._factors(prob, "k", None)
        for i in range(self.N_RHS):
            assert np.array_equal(X[i], fac.solve_numpy(B[i])), f"rhs {i}"

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_empty_block(self, square_cloud_12, solver_cls):
        solver = solver_cls(square_cloud_12)
        out = solver.solve_block(
            _dirichlet_problem(), np.empty((0, square_cloud_12.n))
        )
        assert out.shape == (0, square_cloud_12.n)

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_empty_block_does_not_factorise(self, square_cloud_12, solver_cls):
        solver = solver_cls(square_cloud_12)
        solver.solve_block(_dirichlet_problem(), np.empty((0, square_cloud_12.n)))
        assert solver.n_factorizations == 0
        assert solver.n_solves == 0

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_bad_shape_raises(self, square_cloud_12, solver_cls):
        solver = solver_cls(square_cloud_12)
        with pytest.raises(ValueError, match="b_block"):
            solver.solve_block(_dirichlet_problem(), np.zeros(square_cloud_12.n))
        with pytest.raises(ValueError, match="b_block"):
            solver.solve_block(
                _dirichlet_problem(), np.zeros((2, square_cloud_12.n + 1))
            )

    @pytest.mark.parametrize("solver_cls", [RBFSolver, LocalRBFSolver])
    def test_block_under_recorder(self, square_cloud_12, solver_cls):
        from repro.obs import recording

        B = self._block(solver_cls(square_cloud_12))[:3]
        plain = solver_cls(square_cloud_12).solve_block(_dirichlet_problem(), B)
        with recording() as rec:
            traced = solver_cls(square_cloud_12).solve_block(
                _dirichlet_problem(), B
            )
        assert np.array_equal(traced, plain)
        solves = [e for e in rec.solver_events if e.event == "solve"]
        assert len(solves) == 1
        assert solves[0].n == square_cloud_12.n


class TestIterativeBackend:
    """LocalRBFSolver with ``linear_solver="iterative"`` (Krylov path)."""

    def _exact(self, p):
        return np.sin(np.pi * p[:, 0]) * np.sinh(np.pi * p[:, 1]) / np.sinh(
            np.pi
        )

    def test_invalid_backend_name_raises(self, square_cloud_12):
        with pytest.raises(ValueError, match="linear_solver"):
            LocalRBFSolver(square_cloud_12, linear_solver="multigrid")

    def test_direct_rejects_solver_opts(self, square_cloud_12):
        # The direct backend has no options: silently dropping them would
        # hide a typo'd ``linear_solver``.
        with pytest.raises(TypeError, match="solver_opts are only meaningful"):
            LocalRBFSolver(square_cloud_12, solver_opts={"tol": 1e-8})

    def test_solver_name_reflects_backend(self, square_cloud_12):
        direct = LocalRBFSolver(square_cloud_12)
        iterative = LocalRBFSolver(square_cloud_12, linear_solver="iterative")
        assert direct.solver_name == "rbf-sparse-splu"
        assert iterative.solver_name == "rbf-sparse-krylov"

    def test_iterative_solution_matches_direct(self, square_cloud_12):
        prob = _dirichlet_problem(self._exact)
        u_direct = LocalRBFSolver(square_cloud_12).solve(prob)
        u_iter = LocalRBFSolver(
            square_cloud_12, linear_solver="iterative"
        ).solve(prob)
        np.testing.assert_allclose(u_iter, u_direct, rtol=1e-7, atol=1e-9)

    def test_solver_opts_forwarded(self, square_cloud_12):
        solver = LocalRBFSolver(
            square_cloud_12,
            linear_solver="iterative",
            solver_opts={"method": "gmres", "tol": 1e-8, "maxiter": 500},
        )
        fac, _ = solver._factors(_dirichlet_problem(), "k", None)
        assert fac.method == "gmres"
        assert fac.tol == 1e-8
        assert fac.maxiter == 500

    def test_preconditioner_cached_across_solves(self, square_cloud_12):
        solver = LocalRBFSolver(square_cloud_12, linear_solver="iterative")
        assert solver.n_factorizations == 0
        for v in (1.0, 2.0, 3.0):
            solver.solve(_dirichlet_problem(v), cache_key="loop")
        assert solver.n_factorizations == 1
        fac, _ = solver._factors(_dirichlet_problem(), "loop", None)
        assert fac.n_factorizations == 1  # ONE preconditioner build
        assert fac.n_solves == 3
        assert fac.n_fallbacks == 0

    def test_events_come_from_the_krylov_solver(self, square_cloud_12):
        from repro.obs import TraceRecorder, recording

        solver = LocalRBFSolver(square_cloud_12, linear_solver="iterative")
        with recording(TraceRecorder(test="rbf-iterative")) as rec:
            solver.solve(_dirichlet_problem(1.0), cache_key="k")
        events = rec.solver_events
        # The KrylovSolver reports its own factorize/solve (with
        # iteration counts); the generic rbf-sparse events are
        # suppressed so nothing is double-counted.
        assert [e.event for e in events] == ["factorize", "solve"]
        assert all(e.solver == "sparse-krylov" for e in events)
        assert events[-1].iterations >= 1

    def test_block_solve_bitwise_matches_per_row(self, square_cloud_12):
        solver = LocalRBFSolver(square_cloud_12, linear_solver="iterative")
        prob = _dirichlet_problem()
        rng = np.random.default_rng(11)
        B = rng.standard_normal((3, square_cloud_12.n))
        X = solver.solve_block(prob, B, cache_key="k")
        fac, _ = solver._factors(prob, "k", None)
        for i in range(3):
            assert np.array_equal(X[i], fac.solve_numpy(B[i])), f"rhs {i}"


def _mixed_problem(kind):
    """Dirichlet sides and bottom, a ``kind`` top wall (u = y exactly)."""
    kinds = {
        "internal": BoundaryKind.INTERNAL,
        "bottom": BoundaryKind.DIRICHLET,
        "left": BoundaryKind.DIRICHLET,
        "right": BoundaryKind.DIRICHLET,
        "top": BoundaryKind[kind.upper()],
    }
    cloud = SquareCloud(12, kinds=kinds)

    def exact(p):
        return p[:, 1]

    top = (BoundaryCondition("neumann", value=1.0) if kind == "neumann"
           else BoundaryCondition("robin", value=3.0, beta=2.0))
    prob = LinearPDEProblem(
        operator=LinearOperator2D(lap=1.0, dx=0.5),
        bcs={
            "bottom": BoundaryCondition("dirichlet", value=exact),
            "left": BoundaryCondition("dirichlet", value=exact),
            "right": BoundaryCondition("dirichlet", value=exact),
            "top": top,
        },
    )
    bcs = FieldBCs(kinds={g: bc.kind for g, bc in prob.bcs.items()},
                   robin_beta={"top": 2.0})
    return cloud, prob, bcs


class TestSharedAssembly:
    """Both solvers assemble through the field-system builder."""

    @pytest.mark.parametrize("kind", ["neumann", "robin"])
    def test_dense_matches_field_system_bytewise(self, kind):
        cloud, prob, bcs = _mixed_problem(kind)
        solver = RBFSolver(cloud)
        ops = solver.operators
        A = solver.assemble_system(prob)
        ref = assemble_field_system(
            cloud, ops, ops.operator_matrix(prob.operator), bcs
        )
        assert isinstance(A, np.ndarray)
        assert A.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["neumann", "robin"])
    def test_local_matches_field_system(self, kind):
        cloud, prob, bcs = _mixed_problem(kind)
        solver = LocalRBFSolver(cloud)
        ops = solver.operators
        A = solver.assemble_system(prob)
        ref = assemble_field_system(
            cloud, ops, ops.operator_matrix(prob.operator), bcs
        )
        assert sp.issparse(A)
        assert abs(A - ref).max() == 0.0

    def test_local_operator_matrix_matches_dense_form(self, square_cloud_12):
        ops = LocalRBFSolver(square_cloud_12).operators
        b = np.linspace(-1.0, 1.0, square_cloud_12.n)
        M = ops.operator_matrix(LinearOperator2D(lap=2.0, dx=b, identity=-1.0))
        ref = (2.0 * ops.lap.toarray() + b[:, None] * ops.dx.toarray()
               - np.eye(square_cloud_12.n))
        np.testing.assert_allclose(M.toarray(), ref, rtol=0, atol=1e-12)


def test_rbf_layer_imports_without_the_pde_layer():
    # The package root imports every subpackage, so the check stands in a
    # bare ``repro`` package: only what the rbf modules import is loaded.
    code = (
        "import sys, types; pkg = types.ModuleType('repro'); "
        f"pkg.__path__ = [{os.path.dirname(repro.__file__)!r}]; "
        "sys.modules['repro'] = pkg; import repro.rbf.solver, repro.rbf.local; "
        "sys.exit(any(m.startswith('repro.pde') for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
