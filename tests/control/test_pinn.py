"""Tests for the PINN method and the two-step omega line search.

Training budgets here are tiny (hundreds of epochs): the tests check
*mechanisms* — losses decrease, residuals respond to omega, the line
search selects by retrained cost — not paper-level accuracy, which the
benchmark suite covers at larger budgets.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.control.pinn import (
    LaplacePINN,
    LineSearchResult,
    NavierStokesPINN,
    PINNTrainConfig,
    omega_line_search,
)
from repro.nn.pytree import tree_flatten, tree_map
from repro.pde.navier_stokes import NSConfig

FAST = PINNTrainConfig(epochs=150, lr=2e-3, n_interior=80, n_boundary=12, seed=0)


@pytest.fixture(scope="module")
def lap_pinn(laplace_problem):
    return LaplacePINN(
        laplace_problem, state_hidden=(16, 16), control_hidden=(8,), config=FAST
    )


class TestLaplacePINNComponents:
    def test_init_params_structure(self, lap_pinn):
        p = lap_pinn.init_params()
        assert set(p) == {"u", "c"}
        assert p["u"][0]["W"].shape == (2, 16)
        assert p["c"][0]["W"].shape == (1, 8)

    def test_residual_loss_nonnegative(self, lap_pinn):
        p = lap_pinn.init_params()
        assert float(lap_pinn.residual_loss(p["u"]).data) >= 0.0

    def test_loss_composition(self, lap_pinn):
        p = lap_pinn.init_params()
        l0 = float(lap_pinn.loss(p, omega=0.0).data)
        l1 = float(lap_pinn.loss(p, omega=1.0).data)
        j = float(lap_pinn.cost_objective(p["u"]).data)
        assert l1 == pytest.approx(l0 + j, rel=1e-10)

    def test_training_reduces_loss(self, lap_pinn):
        run = lap_pinn.train_pair(omega=0.1)
        assert run.loss_history[-1] < run.loss_history[0]

    def test_histories_recorded(self, lap_pinn):
        run = lap_pinn.train_pair(omega=0.1)
        assert len(run.loss_history) == FAST.epochs
        assert len(run.cost_history) == FAST.epochs
        assert len(run.residual_history) == FAST.epochs

    def test_joint_training_mode(self, laplace_problem):
        cfg = PINNTrainConfig(
            epochs=60, lr=2e-3, n_interior=50, n_boundary=10, alternating=False
        )
        pinn = LaplacePINN(
            laplace_problem, state_hidden=(8,), control_hidden=(8,), config=cfg
        )
        run = pinn.train_pair(omega=0.1)
        assert run.loss_history[-1] < run.loss_history[0]

    def test_train_pair_seeds_from_passed_config(self, laplace_problem):
        """Regression: without ``seed``, step 1 starts from the passed
        config's seed (as step 2 does), not the constructor's."""
        cfg = PINNTrainConfig(epochs=10, lr=2e-3, n_interior=40, n_boundary=8)
        pinn = LaplacePINN(
            laplace_problem, state_hidden=(6,), control_hidden=(4,), config=cfg
        )
        by_config = pinn.train_pair(0.1, replace(cfg, seed=5))
        by_arg = pinn.train_pair(0.1, cfg, seed=5)
        assert by_config.loss_history == by_arg.loss_history
        for key in ("params_u", "params_c"):
            for la, lb in zip(getattr(by_config, key), getattr(by_arg, key)):
                assert np.array_equal(la["W"], lb["W"])
                assert np.array_equal(la["b"], lb["b"])
        assert by_config.loss_history != pinn.train_pair(0.1).loss_history

    def test_retrain_state_reduces_forward_loss(self, lap_pinn):
        run = lap_pinn.train_pair(omega=0.1)
        _, hist = lap_pinn.retrain_state(run.params_c)
        assert hist[-1] < hist[0]

    def test_control_values_shape(self, lap_pinn, laplace_problem):
        run = lap_pinn.train_pair(omega=0.1)
        c = lap_pinn.control_values(run.params_c)
        assert c.shape == (laplace_problem.n_control,)

    def test_evaluate_cost_positive(self, lap_pinn):
        p = lap_pinn.init_params()
        assert lap_pinn.evaluate_cost(p["u"]) > 0.0

    def test_state_values(self, lap_pinn):
        p = lap_pinn.init_params()
        pts = np.random.default_rng(0).uniform(0, 1, (5, 2))
        assert lap_pinn.state_values(p["u"], pts).shape == (5,)

    def test_large_omega_prioritises_cost(self, laplace_problem):
        """Mechanism behind Fig. 3c–e: larger ω trades PDE fit for cost."""
        cfg = PINNTrainConfig(epochs=400, lr=2e-3, n_interior=80, n_boundary=12)
        pinn = LaplacePINN(
            laplace_problem, state_hidden=(16, 16), control_hidden=(8,), config=cfg
        )
        run_small = pinn.train_pair(omega=1e-3)
        run_big = pinn.train_pair(omega=1e2)
        assert run_big.cost_history[-1] < run_small.cost_history[-1]


class TestLineSearch:
    def test_structure_and_selection(self, lap_pinn):
        omegas = [1e-2, 1.0]
        ls = omega_line_search(lap_pinn, omegas)
        assert isinstance(ls, LineSearchResult)
        assert ls.best_omega in omegas
        assert len(ls.step1) == 2
        assert len(ls.step2_costs) == 2
        assert ls.best_cost == pytest.approx(min(ls.step2_costs))
        assert ls.omegas == [1e-2, 1.0]
        assert ls.failures == []

    def test_empty_omegas_raises(self, lap_pinn):
        with pytest.raises(ValueError):
            omega_line_search(lap_pinn, [])


# Module-level so worker processes resolve it under any start method.
class _FailingPINN(LaplacePINN):
    """Raises during step-1 training for one poisoned ω."""

    poisoned_omega = 1.0

    def train_pair(self, omega, config=None, seed=None):
        if omega == self.poisoned_omega:
            raise RuntimeError(f"poisoned omega {omega}")
        return super().train_pair(omega, config, seed=seed)


class _AllFailPINN(LaplacePINN):
    def train_pair(self, omega, config=None, seed=None):
        raise RuntimeError(f"poisoned omega {omega}")


class _NaNCostPINN(LaplacePINN):
    """Step 2 of the ω in ``nan_omegas`` evaluates to a NaN cost."""

    nan_omegas = (1e-2,)

    def train_pair(self, omega, config=None, seed=None):
        self._omega = omega
        return super().train_pair(omega, config, seed=seed)

    def evaluate_cost(self, params_u):
        cost = super().evaluate_cost(params_u)
        return float("nan") if self._omega in self.nan_omegas else cost


class _AllNaNCostPINN(_NaNCostPINN):
    nan_omegas = (1e-2, 1e-1, 1.0)


class TestLineSearchParallel:
    """Serial/parallel equivalence of the ω line search (the determinism
    bugfix: per-ω seeds derived from (cfg.seed, ω), never shared RNG)."""

    CFG = PINNTrainConfig(epochs=40, lr=2e-3, n_interior=60, n_boundary=10, seed=0)
    OMEGAS = [1e-2, 1e-1, 1.0]

    def _pinn(self, laplace_problem, cls=LaplacePINN):
        return cls(
            laplace_problem, state_hidden=(8,), control_hidden=(6,),
            config=self.CFG,
        )

    @staticmethod
    def _flat(params):
        out = []
        for layer in params:
            out.append(layer["W"].ravel())
            out.append(layer["b"].ravel())
        return np.concatenate(out)

    def _assert_same(self, a: LineSearchResult, b: LineSearchResult):
        assert b.best_omega == a.best_omega
        assert b.best_cost == a.best_cost
        assert b.step2_costs == a.step2_costs
        assert np.array_equal(
            self._flat(b.params_u_retrained), self._flat(a.params_u_retrained)
        )
        assert np.array_equal(self._flat(b.params_c), self._flat(a.params_c))
        for ra, rb in zip(a.step1, b.step1):
            assert rb.loss_history == ra.loss_history
            assert rb.cost_history == ra.cost_history
            assert rb.residual_history == ra.residual_history
            assert np.array_equal(
                self._flat(rb.params_u), self._flat(ra.params_u)
            )
            assert np.array_equal(
                self._flat(rb.params_c), self._flat(ra.params_c)
            )

    def test_parallel_bitwise_identical_to_serial(self, laplace_problem):
        serial = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, jobs=1
        )
        pooled = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, jobs=2
        )
        assert pooled.best_omega == serial.best_omega
        assert pooled.best_cost == serial.best_cost
        assert pooled.step2_costs == serial.step2_costs
        assert np.array_equal(
            self._flat(pooled.params_u_retrained),
            self._flat(serial.params_u_retrained),
        )
        assert np.array_equal(
            self._flat(pooled.params_c), self._flat(serial.params_c)
        )
        for a, b in zip(serial.step1, pooled.step1):
            assert a.loss_history == b.loss_history
            assert a.cost_history == b.cost_history

    def test_omega_order_permutation_invariant(self, laplace_problem):
        """Regression: with sequential shared-RNG training, each ω's result
        depended on its position in the list.  Derived per-ω seeds make the
        per-candidate outcome a function of ω alone."""
        fwd = omega_line_search(self._pinn(laplace_problem), self.OMEGAS, jobs=1)
        rev = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS[::-1], jobs=2
        )
        assert dict(zip(fwd.omegas, fwd.step2_costs)) == dict(
            zip(rev.omegas, rev.step2_costs)
        )
        assert rev.best_omega == fwd.best_omega
        assert rev.best_cost == fwd.best_cost

    def test_recorder_stream_matches_serial(self, laplace_problem):
        from repro.obs import TolerancePolicy, diff_traces, recording

        with recording() as rec_s:
            omega_line_search(self._pinn(laplace_problem), self.OMEGAS, jobs=1)
        with recording() as rec_p:
            omega_line_search(self._pinn(laplace_problem), self.OMEGAS, jobs=2)
        assert len(rec_s.records) == len(rec_p.records)
        assert diff_traces(rec_s, rec_p, TolerancePolicy()) == []

    def test_single_candidate_bitwise_across_all_paths(self, laplace_problem):
        """Regression: the degenerate N_ω == 1 run must reuse the same
        derived ``(cfg.seed, ω)`` key as any multi-candidate run that
        includes the same ω — serial and parallel alike."""
        omega = self.OMEGAS[1]
        solo = omega_line_search(self._pinn(laplace_problem), [omega], jobs=1)
        solo_jobs = omega_line_search(
            self._pinn(laplace_problem), [omega], jobs=2
        )
        self._assert_same(solo, solo_jobs)

        multi = omega_line_search(
            self._pinn(laplace_problem), self.OMEGAS, jobs=1
        )
        i = multi.omegas.index(omega)
        run_multi, run_solo = multi.step1[i], solo.step1[0]
        assert run_multi.loss_history == run_solo.loss_history
        assert run_multi.residual_history == run_solo.residual_history
        assert multi.step2_costs[i] == solo.step2_costs[0]
        assert np.array_equal(
            self._flat(run_multi.params_c), self._flat(run_solo.params_c)
        )

    def test_ndarray_omegas_match_tuple(self, laplace_problem):
        """Regression: an ndarray of ω is a valid candidate list."""
        omegas = self.OMEGAS[:2]
        as_tuple = omega_line_search(
            self._pinn(laplace_problem), tuple(omegas), jobs=1
        )
        as_array = omega_line_search(
            self._pinn(laplace_problem), np.array(omegas), jobs=1
        )
        self._assert_same(as_tuple, as_array)
        assert as_array.omegas == as_tuple.omegas
        with pytest.raises(ValueError):
            omega_line_search(self._pinn(laplace_problem), np.array([]))

    def test_recorder_gets_verdict_meta(self, laplace_problem):
        from repro.obs import recording

        with recording() as rec:
            ls = omega_line_search(
                self._pinn(laplace_problem), self.OMEGAS, jobs=1
            )
        assert rec.meta["best_omega"] == ls.best_omega
        assert rec.meta["step2_costs"] == ls.step2_costs
        assert rec.meta["omega"] == self.OMEGAS[-1]
        assert len(rec.iterations) == len(self.OMEGAS) * self.CFG.epochs

    def test_failed_candidate_dropped_not_fatal(self, laplace_problem):
        ls = omega_line_search(self._pinn(laplace_problem, _FailingPINN),
                               self.OMEGAS, jobs=2)
        assert ls.omegas == [1e-2, 1e-1]
        assert len(ls.step1) == len(ls.step2_costs) == 2
        (failure,) = ls.failures
        assert failure.key == "omega=1"
        assert failure.error["type"] == "RuntimeError"
        assert ls.best_omega in ls.omegas

    def test_all_candidates_failing_raises(self, laplace_problem):
        from repro.parallel import TaskError

        pinn = self._pinn(laplace_problem, _AllFailPINN)
        with pytest.raises(TaskError, match="omega"):
            omega_line_search(pinn, [1e-2, 1.0], jobs=2)

    def test_failed_candidate_dropped_not_fatal_serial(self, laplace_problem):
        """A failing ω is dropped under ``jobs=1`` too, not raised."""
        ls = omega_line_search(self._pinn(laplace_problem, _FailingPINN),
                               self.OMEGAS, jobs=1)
        assert ls.omegas == [1e-2, 1e-1]
        assert len(ls.step1) == len(ls.step2_costs) == 2
        (failure,) = ls.failures
        assert failure.key == "omega=1"
        assert failure.error["type"] == "RuntimeError"
        assert ls.best_omega in ls.omegas

    def test_all_candidates_failing_raises_serial(self, laplace_problem):
        from repro.parallel import TaskError

        pinn = self._pinn(laplace_problem, _AllFailPINN)
        with pytest.raises(TaskError, match="omega"):
            omega_line_search(pinn, [1e-2, 1.0], jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nonfinite_first_cost_does_not_win(self, laplace_problem, jobs):
        """Regression: ``cost < best`` is false against a NaN best, so a
        NaN step-2 cost for the first ω used to win the search."""
        ls = omega_line_search(
            self._pinn(laplace_problem, _NaNCostPINN), self.OMEGAS, jobs=jobs
        )
        assert np.isnan(ls.step2_costs[0])
        i = 1 + int(np.argmin(ls.step2_costs[1:]))
        assert ls.best_omega == self.OMEGAS[i]
        assert ls.best_cost == ls.step2_costs[i]
        assert np.array_equal(
            self._flat(ls.params_c), self._flat(ls.step1[i].params_c)
        )

    def test_all_costs_nonfinite_keep_the_first(self, laplace_problem):
        ls = omega_line_search(
            self._pinn(laplace_problem, _AllNaNCostPINN), self.OMEGAS, jobs=1
        )
        assert ls.best_omega == self.OMEGAS[0]
        assert np.isnan(ls.best_cost)
        assert np.array_equal(
            self._flat(ls.params_c), self._flat(ls.step1[0].params_c)
        )


POISONED_EPOCH = 3


def _poisoned(factory, seen):
    """``factory`` whose value-and-grad functions keep the parameters of
    every call in ``seen`` and return a NaN gradient from call
    ``POISONED_EPOCH`` (0-based) on."""

    def make(fn, **kwargs):
        vg = factory(fn, **kwargs)

        def poisoned(params, wrt=None):
            seen.append(tree_map(np.copy, params))
            val, grads = vg(params, wrt=wrt)
            if len(seen) > POISONED_EPOCH:
                grads = tree_map(lambda g: np.full_like(g, np.nan), grads)
            return val, grads

        return poisoned

    return make


@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
class TestNonFiniteGradientStops:
    """A non-finite gradient ends PINN training at that epoch, as it ends
    ``optimize``: the history stops there and the parameters are the
    iterate the gradient was taken at, the last finite one."""

    def _pinn(self, laplace_problem, compile):
        cfg = PINNTrainConfig(
            epochs=8, lr=2e-3, n_interior=20, n_boundary=6, seed=0,
            compile=compile,
        )
        return LaplacePINN(
            laplace_problem, state_hidden=(6,), control_hidden=(4,), config=cfg
        )

    @staticmethod
    def _poison(monkeypatch, compile, seen):
        if compile:
            import repro.autodiff.compile as owner

            name = "compiled_value_and_grad_tree"
        else:
            import repro.control.pinn as owner

            name = "value_and_grad_tree"
        monkeypatch.setattr(owner, name, _poisoned(getattr(owner, name), seen))

    @staticmethod
    def _assert_trees_equal(a, b):
        la, ta = tree_flatten(a)
        lb, tb = tree_flatten(b)
        assert ta == tb
        for x, y in zip(la, lb):
            assert np.all(np.isfinite(x))
            assert np.array_equal(x, y)

    def test_train_pair(self, laplace_problem, monkeypatch, compile):
        pinn = self._pinn(laplace_problem, compile)
        clean = pinn.train_pair(0.5)
        seen = []
        self._poison(monkeypatch, compile, seen)
        run = pinn.train_pair(0.5)
        n = POISONED_EPOCH + 1
        assert len(seen) == n
        assert run.loss_history == clean.loss_history[:n]
        assert run.cost_history == clean.cost_history[:n]
        assert run.residual_history == clean.residual_history[:n]
        self._assert_trees_equal(
            {"u": run.params_u, "c": run.params_c}, seen[-1]
        )

    def test_retrain_state(self, laplace_problem, monkeypatch, compile):
        pinn = self._pinn(laplace_problem, compile)
        params_c = pinn.init_params(3)["c"]
        _, clean = pinn.retrain_state(params_c)
        seen = []
        self._poison(monkeypatch, compile, seen)
        pu, hist = pinn.retrain_state(params_c)
        n = POISONED_EPOCH + 1
        assert len(seen) == n
        assert hist == clean[:n]
        self._assert_trees_equal(pu, seen[-1]["u"])



class TestNavierStokesPINN:
    @pytest.fixture(scope="class")
    def ns_pinn(self, channel_problem):
        cfg = PINNTrainConfig(
            epochs=120, lr=2e-3, n_interior=80, n_boundary=12, seed=0
        )
        return NavierStokesPINN(
            channel_problem,
            ns_config=NSConfig(reynolds=100.0, refinements=5, pseudo_dt=0.5),
            state_hidden=(16, 16),
            control_hidden=(8,),
            config=cfg,
        )

    def test_residual_includes_all_equations(self, ns_pinn):
        p = ns_pinn.init_params()
        assert float(ns_pinn.residual_loss(p["u"]).data) > 0.0

    def test_training_reduces_loss(self, ns_pinn):
        run = ns_pinn.train_pair(omega=1.0)
        assert run.loss_history[-1] < run.loss_history[0]

    def test_control_values_shape(self, ns_pinn, channel_problem):
        run = ns_pinn.train_pair(omega=1.0)
        assert ns_pinn.control_values(run.params_c).shape == (
            channel_problem.n_control,
        )

    def test_evaluate_cost_physical_runs_reference_solver(
        self, ns_pinn, channel_problem
    ):
        run = ns_pinn.train_pair(omega=1.0)
        j_phys = ns_pinn.evaluate_cost_physical(run.params_c)
        assert np.isfinite(j_phys) and j_phys >= 0.0

    def test_retrain_state(self, ns_pinn):
        run = ns_pinn.train_pair(omega=1.0)
        pu, hist = ns_pinn.retrain_state(run.params_c)
        assert hist[-1] < hist[0]
        assert np.isfinite(ns_pinn.evaluate_cost(pu))

    def test_blowing_data_nonzero_on_segment(self, ns_pinn, channel_problem):
        geo = channel_problem.geometry
        xb = ns_pinn.x_bot[:, 0]
        on = (xb > geo.seg_lo) & (xb < geo.seg_hi)
        assert np.all(ns_pinn.v_bot_data[on] > 0)
        assert np.all(ns_pinn.v_bot_data[~on] == 0)
