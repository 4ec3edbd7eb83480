"""Tests for the differentiable-programming oracles."""

import warnings

import numpy as np
import pytest

from repro.autodiff.check import directional_numerical_derivative
from repro.autodiff.linalg import LUSolver
from repro.autodiff.sparse import SparseLUSolver
from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP, NavierStokesDP
from repro.control.loop import optimize
from repro.obs.metrics import use_registry
from repro.pde import navier_stokes
from repro.pde.laplace import LaplaceControlProblem
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig
from repro.utils.timers import PeakMemory


class TestLaplaceDP:
    def test_value_matches_direct_solve(self, laplace_problem):
        dp = LaplaceDP(laplace_problem)
        c = laplace_problem.zero_control()
        u = dp.solve_state(c)
        assert dp.value(c) == pytest.approx(
            laplace_problem.cost_from_state(u), rel=1e-12
        )

    def test_gradient_exact_vs_fd(self, laplace_problem):
        dp = LaplaceDP(laplace_problem)
        c0 = laplace_problem.zero_control() + 0.1
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            d = rng.standard_normal(c0.shape)
            d /= np.linalg.norm(d)
            num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
            assert abs(float(g @ d) - num) < 1e-8 * max(1.0, abs(num))

    def test_gradient_zero_at_discrete_optimum(self, laplace_problem):
        """At the (convex) discrete optimum the DP gradient vanishes."""
        dp = LaplaceDP(laplace_problem)
        c_star, _ = optimize(dp, n_iterations=600, initial_lr=1e-2)
        _, g = dp.value_and_grad(c_star)
        assert np.linalg.norm(g) < 1e-3

    def test_drives_cost_to_machine_precision_scale(self, laplace_problem):
        """The paper's headline: DP reaches J ~ 1e-9 (2.2e-9 in Table 3)."""
        dp = LaplaceDP(laplace_problem)
        _, hist = optimize(dp, n_iterations=500, initial_lr=1e-2)
        assert hist.best_cost < 1e-7

    def test_optimal_control_close_to_analytic(self, laplace_problem):
        dp = LaplaceDP(laplace_problem)
        c_star, _ = optimize(dp, n_iterations=500, initial_lr=1e-2)
        err = np.max(np.abs(c_star - laplace_problem.optimal_control()))
        assert err < 0.15  # discretisation-level agreement

    def test_initial_control_is_zero(self, laplace_problem):
        np.testing.assert_array_equal(
            LaplaceDP(laplace_problem).initial_control(),
            np.zeros(laplace_problem.n_control),
        )


class TestLaplaceDPLocalBackend:
    """The sparse RBF-FD fast path through the same DP oracle."""

    @pytest.fixture(scope="class")
    def local_problem(self):
        return LaplaceControlProblem(SquareCloud(12), backend="local")

    def test_uses_sparse_solver(self, local_problem, laplace_problem):
        assert isinstance(LaplaceDP(local_problem).solver, SparseLUSolver)
        assert isinstance(LaplaceDP(laplace_problem).solver, LUSolver)

    def test_gradient_exact_vs_fd(self, local_problem):
        dp = LaplaceDP(local_problem)
        c0 = local_problem.zero_control() + 0.1
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(1)
        for _ in range(3):
            d = rng.standard_normal(c0.shape)
            d /= np.linalg.norm(d)
            num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
            assert abs(float(g @ d) - num) < 1e-8 * max(1.0, abs(num))

    def test_factorizes_once_across_control_loop(self, local_problem):
        # Factorise-once/solve-many: the system matrix is constant, so
        # repeated oracle calls inside the optimisation loop must never
        # re-factorise.
        dp = LaplaceDP(local_problem)
        assert dp.solver.n_factorizations == 1
        c = local_problem.zero_control() + 0.05
        for _ in range(3):
            _, g = dp.value_and_grad(c)
            c = c - 1e-2 * g
        assert dp.solver.n_factorizations == 1

    def test_reaches_comparable_optimum(self, local_problem):
        # Acceptance bar: the sparse path lands within 10x of the dense
        # final cost on the same cloud.
        dense = LaplaceDP(LaplaceControlProblem(SquareCloud(12)))
        local = LaplaceDP(local_problem)
        _, hist_d = optimize(dense, n_iterations=120, initial_lr=1e-2)
        _, hist_l = optimize(local, n_iterations=120, initial_lr=1e-2)
        assert hist_l.best_cost <= 10.0 * hist_d.best_cost + 1e-12


class TestNavierStokesDP:
    @pytest.fixture(scope="class")
    def dp(self, channel_problem):
        return NavierStokesDP(
            channel_problem, NSConfig(reynolds=100.0, refinements=5, pseudo_dt=0.5)
        )

    def test_value_consistent_with_ad_forward(self, dp, channel_problem):
        # The NumPy solve and the tape share the momentum kernel, so the
        # fields and J agree bit for bit.
        c = channel_problem.default_control() * 1.05
        state = channel_problem.solve(c, dp.config)
        u, v, _ = channel_problem.solve_ad(c, dp.config)
        assert np.array_equal(state.u, u.data)
        assert np.array_equal(state.v, v.data)
        j_ad, _ = dp.value_and_grad(c)
        assert dp.value(c) == j_ad

    def test_gradient_vs_fd(self, dp, channel_problem):
        c0 = channel_problem.default_control()
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(3)
        d = rng.standard_normal(c0.shape)
        d /= np.linalg.norm(d)
        num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
        assert abs(float(g @ d) - num) < 1e-6 * max(1.0, abs(num))

    def test_short_optimisation_reduces_cost(self, dp):
        c, hist = optimize(dp, n_iterations=15, initial_lr=1e-1)
        assert hist.best_cost < hist.costs[0] * 0.7

    def test_initial_control_parabolic(self, dp, channel_problem):
        np.testing.assert_allclose(
            dp.initial_control(), channel_problem.default_control()
        )


class TestNavierStokesDPDenseMomentum:
    """The dense momentum system as one row-scaled solve per refinement."""

    @staticmethod
    def config(k):
        return NSConfig(reynolds=100.0, refinements=k, pseudo_dt=0.5)

    @pytest.mark.parametrize("k", [3, 10])
    def test_matches_unstructured_reference(
        self, channel_problem, row_scaled_reference, monkeypatch, k
    ):
        c = channel_problem.default_control() * 1.05
        j, g = NavierStokesDP(channel_problem, self.config(k)).value_and_grad(c)
        monkeypatch.setattr(navier_stokes, "ad_solve", row_scaled_reference)
        j_ref, g_ref = NavierStokesDP(
            channel_problem, self.config(k)
        ).value_and_grad(c)
        assert j == pytest.approx(j_ref, rel=1e-10)
        np.testing.assert_allclose(
            g, g_ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(g_ref))
        )

    def test_one_momentum_factorisation_per_refinement(self, channel_problem):
        k = 7
        dp = NavierStokesDP(channel_problem, self.config(k))
        with use_registry() as reg:
            dp.value_and_grad(channel_problem.default_control())
            assert reg.counter("linalg.dense.factorizations").value == k

    def test_gradient_tape_stays_small(self):
        # The tape keeps one LU factor of the non-Dirichlet block and O(n)
        # vectors per refinement (~4 MB); assembling the matrix on the
        # tape peaked at ~37 MB here.
        problem = ChannelFlowProblem(cloud=ChannelCloud(21, 11), perturbation=0.3)
        dp = NavierStokesDP(problem, self.config(10))
        c = problem.default_control()
        dp.value_and_grad(c)  # warm-up: lazy imports and caches
        with PeakMemory() as pm:
            dp.value_and_grad(c)
        assert pm.peak_bytes < 5e6, f"peak {pm.peak_bytes / 1e6:.1f} MB"

    def test_execution_tiers_agree_bitwise(self, channel_problem):
        c0 = channel_problem.default_control()
        controls = [c0, c0 * 1.1, c0 * 0.9]
        eager = NavierStokesDP(channel_problem, self.config(4))
        expected = [eager.value_and_grad(c) for c in controls]
        dp = NavierStokesDP(channel_problem, self.config(4), compile=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a codegen fallback warns
            got = [dp.value_and_grad(c) for c in controls]
        info = dp._vg.cache_info()
        assert info["traces"] == 1 and info["replays"] == 2
        assert info["codegen_fallbacks"] == 0
        for (j, g), (j_ref, g_ref) in zip(got, expected):
            assert j == j_ref
            assert np.array_equal(g, g_ref)


class TestSmoothnessPenalty:
    """The §4 control-variation penalty (opt-in extension)."""

    def test_penalised_laplace_value_adds_term(self, laplace_problem):
        from repro.control.dp import LaplaceDP

        c = laplace_problem.zero_control() + np.sin(
            7 * laplace_problem.control_x
        )
        plain = LaplaceDP(laplace_problem)
        pen = LaplaceDP(laplace_problem, smoothness_weight=1e-2)
        assert pen.value(c) > plain.value(c)

    def test_zero_weight_is_noop(self, laplace_problem):
        from repro.control.dp import LaplaceDP

        c = laplace_problem.zero_control() + 0.1
        assert LaplaceDP(laplace_problem, smoothness_weight=0.0).value(
            c
        ) == pytest.approx(LaplaceDP(laplace_problem).value(c), rel=1e-14)

    def test_penalty_gradient_correct(self, laplace_problem):
        from repro.autodiff.check import directional_numerical_derivative
        from repro.control.dp import LaplaceDP

        dp = LaplaceDP(laplace_problem, smoothness_weight=1e-2)
        c0 = laplace_problem.zero_control() + 0.05
        _, g = dp.value_and_grad(c0)
        rng = np.random.default_rng(0)
        d = rng.standard_normal(c0.shape)
        d /= np.linalg.norm(d)
        num = directional_numerical_derivative(dp.value, c0, d, eps=1e-6)
        assert abs(float(g @ d) - num) < 1e-7 * max(1.0, abs(num))

    def test_constant_control_unpenalised(self, laplace_problem):
        from repro.control.dp import LaplaceDP

        c = np.full(laplace_problem.n_control, 0.3)
        plain = LaplaceDP(laplace_problem)
        pen = LaplaceDP(laplace_problem, smoothness_weight=10.0)
        assert pen.value(c) == pytest.approx(plain.value(c), rel=1e-12)

    def test_ns_penalised_value_consistent_with_grad_path(self, channel_problem):
        from repro.control.dp import NavierStokesDP
        from repro.pde.navier_stokes import NSConfig

        cfg = NSConfig(reynolds=100.0, refinements=4, pseudo_dt=0.5)
        dp = NavierStokesDP(channel_problem, cfg, smoothness_weight=1e-3)
        c = channel_problem.default_control() * 1.1
        j_np = dp.value(c)
        j_ad, _ = dp.value_and_grad(c)
        assert j_np == pytest.approx(j_ad, rel=1e-12)
