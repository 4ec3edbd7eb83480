"""Tests for the Laplace control problem definition and analytics."""

import numpy as np
import pytest

from repro.cloud.square import SquareCloud
from repro.pde.laplace import (
    LaplaceControlProblem,
    default_laplace_problem,
    laplace_bottom_data,
    laplace_optimal_control,
    laplace_optimal_state,
    laplace_side_data,
    laplace_target_flux,
)


class TestAnalyticPair:
    """The analytic (c*, u*) must satisfy every piece of the PDE problem."""

    def test_state_is_harmonic(self):
        eps = 1e-4
        x = np.linspace(0.2, 0.8, 7)
        y = np.linspace(0.2, 0.8, 7)
        for xi in x:
            for yi in y:
                lap = (
                    laplace_optimal_state(xi + eps, yi)
                    + laplace_optimal_state(xi - eps, yi)
                    + laplace_optimal_state(xi, yi + eps)
                    + laplace_optimal_state(xi, yi - eps)
                    - 4 * laplace_optimal_state(xi, yi)
                ) / eps**2
                assert abs(lap) < 1e-4

    def test_bottom_trace(self):
        x = np.linspace(0, 1, 33)
        np.testing.assert_allclose(
            laplace_optimal_state(x, np.zeros_like(x)),
            laplace_bottom_data(x),
            atol=1e-12,
        )

    def test_side_traces(self):
        y = np.linspace(0, 1, 17)
        np.testing.assert_allclose(
            laplace_optimal_state(np.zeros_like(y), y), laplace_side_data(y), atol=1e-12
        )
        np.testing.assert_allclose(
            laplace_optimal_state(np.ones_like(y), y), laplace_side_data(y), atol=1e-12
        )

    def test_top_trace_equals_optimal_control(self):
        x = np.linspace(0, 1, 33)
        np.testing.assert_allclose(
            laplace_optimal_state(x, np.ones_like(x)),
            laplace_optimal_control(x),
            atol=1e-12,
        )

    def test_flux_at_top_equals_target(self):
        x = np.linspace(0, 1, 17)
        eps = 1e-6
        flux = (
            laplace_optimal_state(x, 1.0) - laplace_optimal_state(x, 1.0 - eps)
        ) / eps
        np.testing.assert_allclose(flux, laplace_target_flux(x), atol=1e-4)


class TestProblemSetup:
    def test_control_dimension(self, laplace_problem):
        # Top nodes exclude the two corners.
        assert laplace_problem.n_control == 14  # nx=16 → 16−2

    def test_quadrature_integrates_constant(self, laplace_problem):
        total = laplace_problem.quad_w.sum()
        assert abs(total - 1.0) < 1e-12

    def test_rhs_linear_in_control(self, laplace_problem):
        p = laplace_problem
        c1 = np.ones(p.n_control)
        c2 = 2 * np.ones(p.n_control)
        r0 = p.rhs(np.zeros(p.n_control))
        np.testing.assert_allclose(p.rhs(c2) - r0, 2 * (p.rhs(c1) - r0))

    def test_rhs_contains_boundary_data(self, laplace_problem):
        p = laplace_problem
        r = p.rhs(np.zeros(p.n_control))
        np.testing.assert_allclose(
            r[p.bottom], laplace_bottom_data(p.cloud.points[p.bottom, 0])
        )
        np.testing.assert_allclose(
            r[p.left], laplace_side_data(p.cloud.points[p.left, 1])
        )

    def test_rhs_rejects_bad_shape(self, laplace_problem):
        with pytest.raises(ValueError):
            laplace_problem.rhs(np.zeros(3))

    def test_cost_zero_for_exact_flux(self, laplace_problem):
        p = laplace_problem
        # Construct a synthetic state whose flux rows produce the target:
        # J computed from the mismatch must then vanish.
        u, *_ = np.linalg.lstsq(p.flux_rows, p.target, rcond=None)
        assert p.cost_from_state(u) < 1e-18

    def test_stacked_controls_match_one_at_a_time(self, laplace_problem):
        p = laplace_problem
        rng = np.random.default_rng(5)
        C = rng.normal(scale=0.2, size=(3, p.n_control))
        R = p.rhs(C)
        assert R.shape == (p.cloud.n, 3)
        for j in range(3):
            np.testing.assert_array_equal(R[:, j], p.rhs(C[j]))
        U = rng.normal(size=(p.cloud.n, 3))
        T = p.target[:, None] + rng.normal(scale=0.1, size=(p.n_control, 3))
        shared = p.cost_from_state(U)
        own = p.cost_from_state(U, T)
        assert shared.shape == own.shape == (3,)
        for j in range(3):
            assert shared[j] == pytest.approx(p.cost_from_state(U[:, j]), rel=1e-12)
            assert own[j] == pytest.approx(
                p.cost_from_state(U[:, j], T[:, j]), rel=1e-12
            )
        with pytest.raises(ValueError):
            p.rhs(np.zeros((2, 3, p.n_control)))

    def test_cost_at_analytic_state_is_small(self, laplace_problem):
        p = laplace_problem
        u_exact = p.optimal_state()
        # Discretisation error only (16×16 grid, second derivatives).
        assert p.cost_from_state(u_exact) < 0.5

    def test_zero_control(self, laplace_problem):
        np.testing.assert_array_equal(
            laplace_problem.zero_control(), np.zeros(laplace_problem.n_control)
        )

    def test_default_problem_factory(self):
        p = default_laplace_problem(nx=10)
        assert p.cloud.n == 100

    def test_system_has_unit_boundary_rows(self, laplace_problem):
        p = laplace_problem
        for i in p.cloud.boundary:
            assert p.system[i, i] == 1.0

    def test_forward_solve_reproduces_analytic(self, laplace_problem):
        """Solving with c = analytic c* must approximate u* well."""
        import scipy.linalg as sla

        p = laplace_problem
        u = sla.solve(p.system, p.rhs(p.optimal_control()))
        err = np.max(np.abs(u - p.optimal_state()))
        assert err < 0.05
