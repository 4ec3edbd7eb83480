"""Reference oracles for the Navier–Stokes projection loop and DAL adjoint.

``ChannelFlowProblem.solve`` and ``solve_ad`` loop over one refinement step,
and ``NavierStokesDAL.solve_adjoint`` factorises its reversed-advection
system through ``ChannelFlowProblem.momentum_solver``.  The functions
below are independent plain-NumPy versions of both, with one branch per
backend: the forward loop assembles and factorises each refinement's
momentum system itself, and the adjoint assembles its matrix row by row
(Dirichlet unit rows, outflow Robin rows).  ``solve`` must reproduce the
forward reference bit for bit; the DAL gradient may differ only by
rounding, because the production adjoint factorises a condensed block.
``solve_ad`` runs the step on tape kernels and must match the forward
reference bit for bit too.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.autodiff.krylov import KrylovSolver
from repro.cloud.channel import ChannelCloud
from repro.control.dal import NavierStokesDAL
from repro.obs.metrics import use_registry
from repro.pde.discrete import row_selector
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig

DIRICHLET_GROUPS = ("inflow", "wall_bottom", "wall_top", "blowing", "suction")


def reference_solve(pr: ChannelFlowProblem, control: np.ndarray, cfg: NSConfig):
    """The projection loop in NumPy: ``(u, v, p, update_hist, div_hist)``."""
    nd, mask, dt = pr.nodal, pr.mask_int, cfg.pseudo_dt
    n = pr.cloud.n
    u, v = pr.u_init.copy(), pr.v_init.copy()
    p = pr.initial_pressure(cfg.reynolds)
    b_u_bc = pr.S_in @ control
    update_hist, div_hist = [], []
    local = pr.backend == "local"
    system = None if local else pr.momentum_system(cfg.reynolds)
    for _ in range(cfg.refinements):
        bu = mask * (-(nd.dx @ p)) + b_u_bc
        bv = mask * (-(nd.dy @ p)) + pr.b_v_fixed
        if local:
            A = sp.csr_matrix(
                (pr.momentum_data(u, v, cfg.reynolds),
                 (pr._mom_rows, pr._mom_cols)),
                shape=(n, n),
            )
        if local and pr.solver == "iterative":
            ks = KrylovSolver(A, **pr.solver_opts)
            u_star, v_star = ks.solve_numpy(bu), ks.solve_numpy(bv)
        elif local:
            lu = spla.splu(sp.csc_matrix(A))
            u_star, v_star = lu.solve(bu), lu.solve(bv)
        else:
            lu = system.factor(mask * u, mask * v)
            u_star, v_star = lu.solve(bu), lu.solve(bv)

        div = nd.dx @ u_star + nd.dy @ v_star
        phi = pr.pressure_solver.solve_numpy(mask * div * (1.0 / dt))
        u_new = u_star - dt * pr.free_uv * (nd.dx @ phi)
        v_new = v_star - dt * pr.free_uv * (nd.dy @ phi)
        p = p + phi

        update_hist.append(
            float(max(np.max(np.abs(u_new - u)), np.max(np.abs(v_new - v))))
        )
        u, v = u_new, v_new
        div_hist.append(
            float(np.max(np.abs((nd.dx @ u + nd.dy @ v)[pr.cloud.internal])))
        )
    return u, v, p, update_hist, div_hist


def reference_adjoint_matrix(pr: ChannelFlowProblem, u, v, reynolds: float):
    """Reversed advection, Dirichlet unit rows, outflow Robin rows."""
    nd, mask, n, out = pr.nodal, pr.mask_int, pr.cloud.n, pr.outflow
    beta = reynolds * u[out]
    if pr.backend == "local":
        op = sp.diags(-u) @ nd.dx + sp.diags(-v) @ nd.dy - (1.0 / reynolds) * nd.lap
        A = sp.diags(mask) @ op
        for g in DIRICHLET_GROUPS:
            A = A + row_selector(n, pr.cloud.groups[g])
        return (
            A
            + row_selector(n, out) @ sp.csr_matrix(nd.normal)
            + sp.csr_matrix((beta, (out, out)), shape=(n, n))
        )
    op = (-u)[:, None] * nd.dx + (-v)[:, None] * nd.dy - (1.0 / reynolds) * nd.lap
    A = mask[:, None] * op
    for g in DIRICHLET_GROUPS:
        idx = pr.cloud.groups[g]
        A[idx] = 0.0
        A[idx, idx] = 1.0
    A[out] = nd.normal[out]
    A[out, out] += beta
    return A


def reference_dal(pr: ChannelFlowProblem, control, cfg: NSConfig, refinements: int):
    """DAL cost and gradient with the reference forward and adjoint solves."""
    nd, mask, dt, Re = pr.nodal, pr.mask_int, cfg.pseudo_dt, cfg.reynolds
    u, v, _, _, _ = reference_solve(pr, control, cfg)
    A = reference_adjoint_matrix(pr, u, v, Re)
    if pr.backend == "local":
        solve_sys = spla.splu(sp.csc_matrix(A)).solve
    else:
        lu = sla.lu_factor(A, check_finite=False)

        def solve_sys(b):
            return sla.lu_solve(lu, b, check_finite=False)

    out = pr.outflow
    ux, uy, vx, vy = nd.dx @ u, nd.dy @ u, nd.dx @ v, nd.dy @ v
    lx, ly, sigma = np.zeros(pr.cloud.n), np.zeros(pr.cloud.n), np.zeros(pr.cloud.n)
    mismatch_u, mismatch_v = u[out] - pr.u_target, v[out]
    for _ in range(refinements):
        bx = mask * (-(lx * ux + ly * vx) + nd.dx @ sigma)
        by = mask * (-(lx * uy + ly * vy) + nd.dy @ sigma)
        bx[out] = -Re * (sigma[out] + mismatch_u)
        by[out] = -Re * mismatch_v
        lx_star, ly_star = solve_sys(bx), solve_sys(by)
        div = nd.dx @ lx_star + nd.dy @ ly_star
        phi = pr.pressure_solver.solve_numpy(mask * div / dt)
        lx = lx_star - dt * pr.free_uv * (nd.dx @ phi)
        ly = ly_star - dt * pr.free_uv * (nd.dy @ phi)
        sigma = sigma - phi
    grad = -(1.0 / Re) * (nd.dx @ lx)[pr.inflow] - sigma[pr.inflow]
    return pr.cost(u, v), grad


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def local_direct():
    return ChannelFlowProblem(
        cloud=ChannelCloud(21, 11), perturbation=0.3, backend="local"
    )


@pytest.fixture(scope="module")
def local_iterative():
    return ChannelFlowProblem(
        cloud=ChannelCloud(21, 11), perturbation=0.3, backend="local",
        solver="iterative",
    )


@pytest.fixture(params=["dense", "local-direct", "local-iterative"])
def problem(request, channel_problem, local_direct, local_iterative):
    return {
        "dense": channel_problem,
        "local-direct": local_direct,
        "local-iterative": local_iterative,
    }[request.param]


def _perturbed_control(pr: ChannelFlowProblem) -> np.ndarray:
    c = pr.default_control()
    return c * (1.0 + 0.05 * np.sin(7.0 * pr.inflow_y))


@pytest.mark.parametrize("k", [3, 10])
def test_solve_matches_reference_bitwise(problem, k):
    cfg = NSConfig(reynolds=100.0, refinements=k)
    c = _perturbed_control(problem)
    u, v, p, upd, div = reference_solve(problem, c, cfg)
    st = problem.solve(c, cfg)
    np.testing.assert_array_equal(st.u, u)
    np.testing.assert_array_equal(st.v, v)
    np.testing.assert_array_equal(st.p, p)
    assert st.update_history == upd
    assert st.div_history == div
    # The tape kernels of ``solve_ad`` give the same iterates.
    for t, ref in zip(problem.solve_ad(c, cfg), (u, v, p)):
        np.testing.assert_array_equal(t.data, ref)


@pytest.mark.parametrize("backend", ["dense", "local-direct"])
def test_dal_gradient_matches_reference(backend, channel_problem, local_direct):
    pr = channel_problem if backend == "dense" else local_direct
    cfg = NSConfig(reynolds=100.0, refinements=3)
    dal = NavierStokesDAL(pr, cfg)
    c = _perturbed_control(pr)
    j_ref, g_ref = reference_dal(pr, c, cfg, dal.adjoint_refinements)
    j, g = dal.value_and_grad(c)
    assert j == j_ref
    assert _rel(g, g_ref) <= 1e-11


def test_dal_iterative_matches_direct(local_direct, local_iterative):
    cfg = NSConfig(reynolds=100.0, refinements=3)
    c = _perturbed_control(local_direct)
    j_d, g_d = NavierStokesDAL(local_direct, cfg).value_and_grad(c)
    j_i, g_i = NavierStokesDAL(local_iterative, cfg).value_and_grad(c)
    assert j_i == pytest.approx(j_d, rel=1e-8)
    assert _rel(g_i, g_d) <= 1e-8


class TestDenseFactorisationCount:
    """One LU per refinement forward, one per adjoint solve."""

    K = 4

    def _count(self, fn) -> int:
        with use_registry() as reg:
            fn()
            return reg.counter("linalg.dense.factorizations").value

    def test_solve(self, channel_problem):
        cfg = NSConfig(refinements=self.K)
        c = channel_problem.default_control()
        assert self._count(lambda: channel_problem.solve(c, cfg)) == self.K

    def test_solve_ad(self, channel_problem):
        cfg = NSConfig(refinements=self.K)
        c = channel_problem.default_control()
        assert self._count(lambda: channel_problem.solve_ad(c, cfg)) == self.K

    def test_solve_adjoint(self, channel_problem):
        dal = NavierStokesDAL(channel_problem, NSConfig(refinements=self.K))
        st = channel_problem.solve(channel_problem.default_control(), dal.config)
        assert dal.adjoint_refinements > 1
        assert self._count(lambda: dal.solve_adjoint(st.u, st.v)) == 1


class _CountingMatrix(np.ndarray):
    """An ``n×n`` operator that counts the products taken with it."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatrix.matmuls += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_adjoint_matvec_count(channel_problem, monkeypatch, k):
    """Four ``n×n`` mat-vecs per refinement (divergence and projection; ``∇σ``
    is carried, not recomputed) plus the four velocity derivatives, and one
    momentum factorisation."""
    pr = channel_problem
    dal = NavierStokesDAL(pr, NSConfig(refinements=3), adjoint_refinements=k)
    st = pr.solve(pr.default_control(), dal.config)
    for name in ("dx", "dy"):
        monkeypatch.setattr(
            pr.nodal, name, getattr(pr.nodal, name).view(_CountingMatrix)
        )
    monkeypatch.setattr(_CountingMatrix, "matmuls", 0)
    with use_registry() as reg:
        dal.solve_adjoint(st.u, st.v)
        assert reg.counter("linalg.dense.factorizations").value == 1
    assert _CountingMatrix.matmuls == 4 * k + 4


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("backend", ["dense", "local-direct"])
def test_adjoint_structural_zeros(backend, k, channel_problem, local_direct):
    """``λ`` is 0 on every velocity-Dirichlet node (the momentum RHS vanishes
    there, so the dense solve skips its Dirichlet block) and ``σ`` is 0 on
    the outflow, where the pressure is Dirichlet.

    Dense: exactly, the condensed solve copies the zero data through.
    ``splu`` permutes rows and columns, so on local-direct the unit rows'
    data comes back with rounding error (below 1e-12 of the field's
    maximum, as before the short path existed).
    """
    pr = channel_problem if backend == "dense" else local_direct
    dal = NavierStokesDAL(pr, NSConfig(refinements=3), adjoint_refinements=k)
    st = pr.solve(_perturbed_control(pr), dal.config)
    adj = dal.solve_adjoint(st.u, st.v)
    dirichlet = np.concatenate([pr.cloud.groups[g] for g in DIRICHLET_GROUPS])
    for field, nodes in ((adj.lx, dirichlet), (adj.ly, dirichlet),
                         (adj.sigma, pr.outflow)):
        assert np.any(field)
        if backend == "dense":
            np.testing.assert_array_equal(field[nodes], 0.0)
        else:
            np.testing.assert_allclose(
                field[nodes], 0.0, atol=1e-11 * np.max(np.abs(field))
            )


class TestSparseFactorisationCount:
    """The local-backend twin: every momentum ``splu`` reaches the registry.

    Per refinement one factorisation serves both velocity components (one
    block solve) and the pressure solve reuses the constant factors.
    """

    K = 4

    def _counts(self, fn):
        with use_registry() as reg:
            fn()
            return (reg.counter("linalg.sparse.factorizations").value,
                    reg.counter("linalg.sparse.solves").value)

    def test_solve(self, local_direct):
        cfg = NSConfig(refinements=self.K)
        c = local_direct.default_control()
        assert self._counts(lambda: local_direct.solve(c, cfg)) == (
            self.K, 2 * self.K)

    def test_solve_ad(self, local_direct):
        cfg = NSConfig(refinements=self.K)
        c = local_direct.default_control()
        assert self._counts(lambda: local_direct.solve_ad(c, cfg)) == (
            self.K, 2 * self.K)

    def test_solve_adjoint(self, local_direct):
        dal = NavierStokesDAL(local_direct, NSConfig(refinements=self.K))
        st = local_direct.solve(local_direct.default_control(), dal.config)
        assert dal.adjoint_refinements > 1
        factorizations, _ = self._counts(lambda: dal.solve_adjoint(st.u, st.v))
        assert factorizations == 1


@pytest.mark.parametrize("backend", ["dense", "local-direct"])
def test_dal_gradient_matches_reference_at_low_reynolds(
    backend, channel_problem, local_direct
):
    """The same parity away from the defaults: Re = 10, k = 10, dt = 0.3."""
    pr = channel_problem if backend == "dense" else local_direct
    cfg = NSConfig(reynolds=10.0, refinements=10, pseudo_dt=0.3)
    dal = NavierStokesDAL(pr, cfg)
    c = _perturbed_control(pr)
    j_ref, g_ref = reference_dal(pr, c, cfg, dal.adjoint_refinements)
    j, g = dal.value_and_grad(c)
    assert j == j_ref
    assert _rel(g, g_ref) <= 1e-11
