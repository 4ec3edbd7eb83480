"""Tests for the local RBF-FD extension (sparse stencil operators)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cloud.base import BoundaryKind
from repro.cloud.square import SquareCloud
from repro.rbf.assembly import LinearOperator2D
from repro.rbf.local import (
    build_local_operators,
    default_stencil_size,
    solve_pde_local,
)
from repro.rbf.operators import build_nodal_operators
from repro.rbf.kernels import polyharmonic
from repro.rbf.solver import BoundaryCondition, LinearPDEProblem, LocalRBFSolver


@pytest.fixture(scope="module")
def cloud():
    return SquareCloud(16)


@pytest.fixture(scope="module")
def lops(cloud):
    return build_local_operators(cloud, stencil_size=15)


class TestConstruction:
    def test_default_stencil_size(self):
        assert default_stencil_size(1) == 12
        assert default_stencil_size(2) == 13
        assert default_stencil_size(3) == 21

    def test_sparsity(self, lops, cloud):
        assert sp.issparse(lops.dx)
        assert lops.dx.nnz == 15 * cloud.n
        assert lops.lap.nnz <= 15 * cloud.n

    def test_stencil_too_large_raises(self):
        small = SquareCloud(3)
        with pytest.raises(ValueError, match="stencil"):
            build_local_operators(small, stencil_size=100)

    def test_normal_rows_only_on_boundary(self, lops, cloud):
        dense = lops.normal.toarray()
        np.testing.assert_array_equal(dense[cloud.internal], 0.0)
        assert np.abs(dense[cloud.boundary]).sum() > 0


class TestAccuracy:
    def test_linear_exactness(self, lops, cloud):
        f = 1 + 2 * cloud.x - 3 * cloud.y
        np.testing.assert_allclose(lops.dx @ f, 2.0, atol=1e-10)
        np.testing.assert_allclose(lops.dy @ f, -3.0, atol=1e-10)
        np.testing.assert_allclose(lops.lap @ f, 0.0, atol=1e-9)

    def test_smooth_field_first_derivative(self, lops, cloud):
        f = np.sin(2 * cloud.x) * np.cos(cloud.y)
        fx = 2 * np.cos(2 * cloud.x) * np.cos(cloud.y)
        err = np.abs((lops.dx @ f - fx)[cloud.internal])
        assert err.max() < 0.1

    def test_convergence_with_resolution(self):
        errs = []
        for nx in (10, 20):
            c = SquareCloud(nx)
            ops = build_local_operators(c, stencil_size=15)
            f = np.sin(2 * c.x) * np.cos(c.y)
            fx = 2 * np.cos(2 * c.x) * np.cos(c.y)
            errs.append(np.abs((ops.dx @ f - fx)[c.internal]).max())
        assert errs[1] < errs[0]

    def test_agrees_with_global_on_interior(self, cloud, lops):
        gops = build_nodal_operators(cloud, polyharmonic(3), 1)
        f = np.sin(cloud.x + 0.5 * cloud.y)
        d_local = (lops.dx @ f)[cloud.internal]
        d_global = (gops.dx @ f)[cloud.internal]
        # Both approximate the same derivative; agreement at the level of
        # their individual truncation errors.
        assert np.max(np.abs(d_local - d_global)) < 0.05


class TestSparseSolve:
    def exact(self, p):
        return np.sin(np.pi * p[:, 0]) * np.sinh(np.pi * p[:, 1]) / np.sinh(np.pi)

    def test_laplace_dirichlet(self, cloud, lops):
        u = solve_pde_local(
            cloud,
            lops,
            {"lap": 1.0},
            0.0,
            {g: self.exact for g in ("top", "bottom", "left", "right")},
        )
        assert np.max(np.abs(u - self.exact(cloud.points))) < 0.05

    def test_poisson_with_source(self, cloud, lops):
        def exact(p):
            return p[:, 0] ** 2 + p[:, 1] ** 2

        u = solve_pde_local(
            cloud,
            lops,
            {"lap": 1.0},
            4.0,
            {g: exact for g in ("top", "bottom", "left", "right")},
        )
        # Degree-1 augmentation: quadratics are approximated, not exact.
        assert np.max(np.abs(u - exact(cloud.points))) < 0.1

    def test_missing_group_raises(self):
        cloud = SquareCloud(12)
        lops = build_local_operators(cloud)
        with pytest.raises(
            ValueError, match="missing boundary condition for group 'right'"
        ):
            solve_pde_local(
                cloud, lops, {"lap": 1.0}, 0.0,
                {g: 0.0 for g in ("top", "bottom", "left")},
            )

    def test_robin_group(self):
        # u = y: ∂u/∂n = 1 on a top wall tagged Robin (β = 0).
        kinds = {
            "internal": BoundaryKind.INTERNAL,
            "bottom": BoundaryKind.DIRICHLET,
            "left": BoundaryKind.DIRICHLET,
            "right": BoundaryKind.DIRICHLET,
            "top": BoundaryKind.ROBIN,
        }
        cloud = SquareCloud(12, kinds=kinds)
        lops = build_local_operators(cloud)

        def exact(p):
            return p[:, 1]

        bc_values = {g: exact for g in ("bottom", "left", "right")}
        u = solve_pde_local(
            cloud, lops, {"lap": 1.0}, 0.0, dict(bc_values, top=1.0)
        )
        np.testing.assert_allclose(u, exact(cloud.points), atol=1e-8)

    def test_matches_local_solver(self, cloud, lops):
        def exact(p):
            return p[:, 0] ** 2 - p[:, 1] ** 2

        u = solve_pde_local(
            cloud, lops, {"lap": 1.0, "dx": 0.5}, lambda p: p[:, 0],
            {g: exact for g in ("top", "bottom", "left", "right")},
        )
        problem = LinearPDEProblem(
            operator=LinearOperator2D(lap=1.0, dx=0.5),
            source=lambda p: p[:, 0],
            bcs={g: BoundaryCondition("dirichlet", value=exact)
                 for g in ("top", "bottom", "left", "right")},
        )
        ref = LocalRBFSolver(cloud, stencil_size=15).solve(problem)
        np.testing.assert_array_equal(u, ref)
