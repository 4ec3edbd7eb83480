"""Tests for the Navier–Stokes projection solver (NumPy and AD paths)."""

import numpy as np
import pytest

from repro.autodiff.check import directional_numerical_derivative
from repro.autodiff.functional import value_and_grad
from repro.cloud.channel import ChannelCloud
from repro.pde.navier_stokes import (
    ChannelFlowProblem,
    NSConfig,
    _segment_bump,
    poiseuille_profile,
)


class TestHelpers:
    def test_poiseuille_peak_and_zeros(self):
        y = np.linspace(0, 1, 11)
        p = poiseuille_profile(y)
        assert p[0] == 0.0 and p[-1] == 0.0
        assert abs(p[5] - 1.0) < 1e-12

    def test_poiseuille_scaled_height(self):
        y = np.linspace(0, 2, 21)
        p = poiseuille_profile(y, ly=2.0)
        assert abs(p[10] - 1.0) < 1e-12

    def test_segment_bump_vanishes_at_ends(self):
        x = np.array([0.6, 0.75, 0.9])
        b = _segment_bump(x, 0.6, 0.9, 0.3)
        assert b[0] == 0.0 and b[2] == 0.0
        assert abs(b[1] - 0.3) < 1e-12


class TestProblemSetup:
    def test_control_dimension(self, channel_problem):
        assert channel_problem.n_control == len(channel_problem.inflow_y)

    def test_quadrature_total_height(self, channel_problem):
        assert abs(channel_problem.quad_w.sum() - 1.0) < 1e-12

    def test_default_control_is_parabolic(self, channel_problem):
        np.testing.assert_allclose(
            channel_problem.default_control(),
            poiseuille_profile(channel_problem.inflow_y),
        )

    def test_blowing_suction_data_positive(self, channel_problem):
        assert channel_problem.v_blow.max() > 0
        assert channel_problem.v_suck.max() > 0

    def test_bad_control_shape_raises(self, channel_problem, ns_config_fast):
        with pytest.raises(ValueError):
            channel_problem.solve(np.zeros(3), ns_config_fast)


class TestPoiseuilleSteadyState:
    """With no perturbation, the parabolic profile is an exact steady
    solution; the solver must (approximately) preserve it."""

    @pytest.fixture(scope="class")
    def clean_problem(self):
        return ChannelFlowProblem(cloud=ChannelCloud(17, 9), perturbation=0.0)

    def test_cost_stays_near_zero(self, clean_problem):
        cfg = NSConfig(reynolds=100.0, refinements=8, pseudo_dt=0.5)
        st = clean_problem.solve(clean_problem.default_control(), cfg)
        assert clean_problem.cost(st.u, st.v) < 1e-3

    def test_v_stays_small(self, clean_problem):
        cfg = NSConfig(reynolds=100.0, refinements=8, pseudo_dt=0.5)
        st = clean_problem.solve(clean_problem.default_control(), cfg)
        assert np.max(np.abs(st.v)) < 0.05

    def test_pressure_gradient_poiseuille(self, clean_problem):
        """Steady Poiseuille requires dp/dx ≈ −8/(Re Ly²)."""
        Re = 50.0
        cfg = NSConfig(reynolds=Re, refinements=12, pseudo_dt=0.5)
        st = clean_problem.solve(clean_problem.default_control(), cfg)
        nd = clean_problem.nodal
        dpdx = (nd.dx @ st.p)[clean_problem.cloud.internal]
        np.testing.assert_allclose(dpdx, -8.0 / Re, atol=0.5 * 8.0 / Re)


class TestCrossFlow:
    def test_converges_to_steady_state(self, channel_problem):
        cfg = NSConfig(reynolds=100.0, refinements=20, pseudo_dt=0.5)
        st = channel_problem.solve(channel_problem.default_control(), cfg)
        assert st.update_history[-1] < 5e-2
        assert st.update_history[-1] < st.update_history[0]

    def test_blowing_bc_imposed(self, channel_problem, ns_config_fast):
        st = channel_problem.solve(
            channel_problem.default_control(), ns_config_fast
        )
        np.testing.assert_allclose(
            st.v[channel_problem.blowing], channel_problem.v_blow, atol=1e-10
        )

    def test_inflow_control_imposed(self, channel_problem, ns_config_fast):
        c = 0.7 * channel_problem.default_control()
        st = channel_problem.solve(c, ns_config_fast)
        np.testing.assert_allclose(st.u[channel_problem.inflow], c, atol=1e-10)

    def test_cross_flow_disturbs_outlet(self, channel_problem, ns_config_fast):
        st = channel_problem.solve(
            channel_problem.default_control(), ns_config_fast
        )
        assert channel_problem.cost(st.u, st.v) > 1e-4

    def test_outflow_profiles_accessor(self, channel_problem, ns_config_fast):
        st = channel_problem.solve(
            channel_problem.default_control(), ns_config_fast
        )
        prof = channel_problem.outflow_profiles(st)
        assert set(prof) == {"y", "u", "v", "target"}
        assert prof["u"].shape == prof["target"].shape


class TestAutodiffPath:
    def test_forward_values_match_numpy(self, channel_problem, ns_config_fast):
        c = channel_problem.default_control()
        st = channel_problem.solve(c, ns_config_fast)
        u, v, p = channel_problem.solve_ad(c, ns_config_fast)
        np.testing.assert_allclose(u.data, st.u, rtol=1e-12)
        np.testing.assert_allclose(v.data, st.v, rtol=1e-12)
        np.testing.assert_allclose(p.data, st.p, rtol=1e-12)

    def test_cost_ad_matches_numpy(self, channel_problem, ns_config_fast):
        c = channel_problem.default_control()
        st = channel_problem.solve(c, ns_config_fast)
        u, v, _ = channel_problem.solve_ad(c, ns_config_fast)
        j_ad = float(channel_problem.cost_ad(u, v).data)
        assert abs(j_ad - channel_problem.cost(st.u, st.v)) < 1e-14

    def test_gradient_matches_fd_directional(self, channel_problem):
        cfg = NSConfig(reynolds=100.0, refinements=4, pseudo_dt=0.5)
        c0 = channel_problem.default_control()

        def J(c):
            u, v, _ = channel_problem.solve_ad(c, cfg)
            return channel_problem.cost_ad(u, v)

        _, g = value_and_grad(J)(c0)
        rng = np.random.default_rng(1)
        d = rng.standard_normal(c0.shape)
        d /= np.linalg.norm(d)
        num = directional_numerical_derivative(
            lambda c: float(J(c).data), c0, d, eps=1e-6
        )
        assert abs(float(g @ d) - num) < 1e-7 * max(1.0, abs(num))


class TestReynoldsDependence:
    def test_low_re_converges_faster(self, channel_problem):
        cfg10 = NSConfig(reynolds=10.0, refinements=15, pseudo_dt=0.5)
        cfg100 = NSConfig(reynolds=100.0, refinements=15, pseudo_dt=0.5)
        c = channel_problem.default_control()
        st10 = channel_problem.solve(c, cfg10)
        st100 = channel_problem.solve(c, cfg100)
        assert st10.update_history[-1] <= st100.update_history[-1] * 2.0
