"""Tests for the shared optimisation loop."""

import numpy as np
import pytest

from repro.control.loop import OptimizationHistory, optimize


class QuadraticOracle:
    """J(c) = ||c − t||² with exact gradient."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)
        self.calls = 0

    def value(self, c):
        return float(np.sum((c - self.target) ** 2))

    def value_and_grad(self, c):
        self.calls += 1
        return self.value(c), 2.0 * (c - self.target)

    def initial_control(self):
        return np.zeros_like(self.target)


class NaNOracle(QuadraticOracle):
    """Returns NaN gradients after a few iterations (DAL-on-NS style)."""

    def value_and_grad(self, c):
        j, g = super().value_and_grad(c)
        if self.calls > 3:
            g = np.full_like(g, np.nan)
        return j, g


class TestOptimize:
    def test_converges_on_quadratic(self):
        oracle = QuadraticOracle([1.0, -2.0, 0.5])
        c, hist = optimize(oracle, n_iterations=300, initial_lr=0.1)
        np.testing.assert_allclose(c, oracle.target, atol=1e-3)
        assert hist.costs[-1] < hist.costs[0]

    def test_history_lengths(self):
        oracle = QuadraticOracle([1.0])
        _, hist = optimize(oracle, n_iterations=50, initial_lr=0.1)
        assert len(hist.costs) == 50
        assert len(hist.grad_norms) == 50
        assert len(hist.learning_rates) == 50
        assert hist.wall_time_s > 0

    def test_schedule_applied(self):
        oracle = QuadraticOracle([1.0])
        _, hist = optimize(oracle, n_iterations=100, initial_lr=1e-2)
        assert hist.learning_rates[0] == pytest.approx(1e-2)
        assert hist.learning_rates[60] == pytest.approx(1e-3)
        assert hist.learning_rates[90] == pytest.approx(1e-4)

    def test_returns_best_not_last(self):
        # Overshooting oracle: huge lr makes the last iterate worse.
        oracle = QuadraticOracle([1.0])
        c, hist = optimize(oracle, n_iterations=20, initial_lr=5.0)
        assert hist.best_cost <= hist.costs[-1] + 1e-12
        assert oracle.value(c) == pytest.approx(hist.best_cost)

    def test_custom_initial_control(self):
        oracle = QuadraticOracle([0.0, 0.0])
        c, hist = optimize(
            oracle, n_iterations=5, initial_lr=0.1, c0=np.array([3.0, 3.0])
        )
        assert hist.costs[0] == pytest.approx(18.0)

    def test_callback_invoked(self):
        oracle = QuadraticOracle([1.0])
        seen = []
        optimize(
            oracle,
            n_iterations=7,
            initial_lr=0.1,
            callback=lambda it, c, j: seen.append(it),
        )
        assert seen == list(range(7))

    def test_gradient_clipping(self):
        oracle = QuadraticOracle([100.0])
        _, hist_unclipped = optimize(oracle, n_iterations=3, initial_lr=0.1)
        _, hist = optimize(oracle, n_iterations=3, initial_lr=0.1, grad_clip=1.0)
        assert all(n <= 1.0 + 1e-12 for n in hist.grad_norms[1:])

    def test_nan_gradient_stops_loop(self):
        oracle = NaNOracle([1.0])
        _, hist = optimize(oracle, n_iterations=100, initial_lr=0.1)
        assert len(hist.costs) < 100  # stopped early

    def test_invalid_iteration_count(self):
        with pytest.raises(ValueError):
            optimize(QuadraticOracle([1.0]), n_iterations=0, initial_lr=0.1)

    def test_empty_history_best_cost(self):
        assert OptimizationHistory().best_cost == np.inf


class TestBatchedCostSweep:
    """batched_cost_sweep: one stacked forward scores N candidates."""

    def test_fallback_loop_without_cost_tensor(self):
        from repro.control.loop import batched_cost_sweep

        oracle = QuadraticOracle([1.0, -2.0, 0.5])
        controls = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = batched_cost_sweep(oracle, controls)
        assert out.shape == (4,)
        assert np.array_equal(out, [oracle.value(c) for c in controls])

    def test_dp_oracle_bitwise_matches_value_loop(self, laplace_problem_local):
        from repro.control.dp import LaplaceDP
        from repro.control.loop import batched_cost_sweep

        oracle = LaplaceDP(laplace_problem_local)
        rng = np.random.default_rng(3)
        controls = rng.standard_normal((5, laplace_problem_local.n_control))
        out = batched_cost_sweep(oracle, controls)
        # Sparse backend: the multi-RHS SuperLU solve is bitwise the
        # per-candidate solve, so each entry equals oracle.value exactly.
        assert np.array_equal(out, [oracle.value(c) for c in controls])

    def test_single_candidate_matches_value(self, laplace_problem_local):
        from repro.control.dp import LaplaceDP
        from repro.control.loop import batched_cost_sweep

        oracle = LaplaceDP(laplace_problem_local)
        c = np.linspace(-1, 1, laplace_problem_local.n_control)
        out = batched_cost_sweep(oracle, c[None, :])
        assert out.shape == (1,)
        assert out[0] == oracle.value(c)

    def test_empty_population(self, laplace_problem_local):
        from repro.control.dp import LaplaceDP
        from repro.control.loop import batched_cost_sweep

        oracle = LaplaceDP(laplace_problem_local)
        out = batched_cost_sweep(
            oracle, np.empty((0, laplace_problem_local.n_control))
        )
        assert out.shape == (0,)

    def test_rejects_non_2d(self):
        from repro.control.loop import batched_cost_sweep

        with pytest.raises(ValueError, match="controls"):
            batched_cost_sweep(QuadraticOracle([0.0]), np.zeros(3))


class TestBatchedCostSweepSolveReuse:
    """The sweep's N candidates share one multi-RHS solve against the
    oracle's cached factorisation: the reuse ``vbatch`` exists for."""

    @pytest.mark.parametrize("backend,kind", [("dense", "dense"), ("local", "sparse")])
    def test_one_block_solve_and_no_factorisation(self, backend, kind):
        from repro.cloud.square import SquareCloud
        from repro.control.dp import LaplaceDP
        from repro.control.loop import batched_cost_sweep
        from repro.obs.metrics import use_registry
        from repro.pde.laplace import LaplaceControlProblem

        problem = LaplaceControlProblem(SquareCloud(12), backend=backend)
        oracle = LaplaceDP(problem)
        controls = np.random.default_rng(5).standard_normal((5, problem.n_control))
        oracle.value(controls[0])  # warm: factorise once
        with use_registry() as reg:
            batched_cost_sweep(oracle, controls)
            assert reg.counter(f"linalg.{kind}.factorizations").value == 0
            assert reg.counter(f"linalg.{kind}.solves").value == 1
