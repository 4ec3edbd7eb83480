"""Matrix-free differentiable Krylov solves — the 100k-node backend.

The direct sparse path (:class:`~repro.autodiff.sparse.SparseLUSolver`)
already removes the dense ``O(N³)`` ceiling, but a SuperLU factorisation
of a 100k-node RBF-FD operator still pays superlinear fill-in in both
time and memory.  This module adds the standard scalable alternative: a
preconditioned Krylov iteration (BiCGSTAB or restarted GMRES) that only
ever touches the operator through matrix–vector products, wrapped as a
differentiable primitive.

The differentiable-solve contract is the same *implicit/adjoint* identity
the direct solvers use, and deliberately **never differentiates through
the iteration**:

.. math::

    x = A^{-1} b \\;\\Rightarrow\\;
    \\bar b = A^{-T} \\bar x, \\qquad \\bar A = -\\bar b\\, x^T ,

so the VJP is *one more Krylov solve* — against the transposed operator
with the transposed preconditioner — and the gradient is bitwise
independent of how many iterations either solve took.  (Unrolling the
iteration would tie gradient accuracy to iterate history and multiply
memory by ``maxiter``; the adjoint solve costs the same as the forward
one and is exact at the solves' tolerance.)

Failure policy: an iteration that has not met its tolerance by
``maxiter`` **never returns silently**.  It either raises
:class:`KrylovConvergenceError` (default) or, with ``fallback=True``,
completes the solve with a direct sparse factorisation — and emits a
``repro.obs`` solver event (``"failure"`` / ``"fallback"``) either way.

Preconditioning: ``"ilu"`` (a drop-tolerance incomplete LU of the sparse
RBF-FD operator, nnz-bounded by its fill-factor cap) or ``"jacobi"``
(inverse diagonal), or ``None``.  The transposed preconditioner for the
adjoint solve comes for free: ``ilu`` factors solve with ``trans="T"``,
Jacobi is symmetric.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.autodiff.batching import primitive
from repro.autodiff.linalg import FactorizedSolver
from repro.autodiff.sparse import _pattern_solve
from repro.autodiff.tensor import ArrayLike, Tensor
from repro.obs.health import current_watchdog
from repro.obs.metrics import get_registry
from repro.obs.profile import span as _span
from repro.obs.recorder import current_recorder

__all__ = [
    "KrylovConvergenceError",
    "KrylovResult",
    "KrylovSolver",
    "bicgstab",
    "gmres",
    "krylov_pattern_solve",
]


class KrylovConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance by ``maxiter``.

    Carries the full diagnosis so callers (and tests) can assert on the
    failure instead of parsing a message: the method name, system size,
    iterations spent, the final relative residual, and the tolerance it
    missed.
    """

    def __init__(
        self,
        method: str,
        n: int,
        iterations: int,
        residual: float,
        tol: float,
    ) -> None:
        self.method = method
        self.n = int(n)
        self.iterations = int(iterations)
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"{method} did not converge on the {n}×{n} system: relative "
            f"residual {residual:.3e} after {iterations} iterations "
            f"(tol={tol:.1e}); raise maxiter, strengthen the "
            f"preconditioner, or pass fallback=True to complete with a "
            f"direct sparse solve"
        )


class KrylovResult:
    """Outcome of one Krylov iteration (solution + convergence trace)."""

    __slots__ = ("x", "converged", "iterations", "residuals")

    def __init__(
        self,
        x: np.ndarray,
        converged: bool,
        iterations: int,
        residuals: List[float],
    ) -> None:
        self.x = x
        self.converged = converged
        self.iterations = iterations
        #: Relative residual-norm history, one entry per iteration
        #: (BiCGSTAB: true residual; GMRES: recurrence residual).
        self.residuals = residuals


def _stop_threshold(b_norm: float, tol: float, atol: float) -> float:
    """Absolute 2-norm stopping threshold ``max(tol·‖b‖, atol)``."""
    return max(tol * b_norm, atol)


def bicgstab(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
) -> KrylovResult:
    """Right-preconditioned BiCGSTAB (van der Vorst 1992).

    Implemented here (rather than via ``scipy.sparse.linalg.bicgstab``)
    so the iteration is deterministic across SciPy versions, reports
    exact iteration counts and a true-residual history for the telemetry
    layer, and costs nothing extra for that history — the recurrence
    already carries ``r``.  Right preconditioning keeps the convergence
    test on the *true* residual ``‖b − Ax‖``, so "converged" always
    means the unpreconditioned system was actually solved.
    """
    n = b.shape[0]
    maxiter = 10 * n if maxiter is None else int(maxiter)
    M = precond if precond is not None else (lambda v: v)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - matvec(x) if x.any() else b.astype(np.float64, copy=True)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return KrylovResult(np.zeros_like(b), True, 0, [0.0])
    threshold = _stop_threshold(b_norm, tol, atol)
    residuals: List[float] = []
    r_norm = float(np.linalg.norm(r))
    if r_norm <= threshold:
        return KrylovResult(x, True, 0, [r_norm / b_norm])

    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for k in range(maxiter):
        rho_new = float(r_hat @ r)
        if rho_new == 0.0 or omega == 0.0:
            # Breakdown: the shadow vector has become orthogonal to the
            # residual.  This is *structural* for boundary-supported
            # right-hand sides (collocation RHS live on Dirichlet rows,
            # which a good preconditioner solves exactly in one step, so
            # the remaining residual has disjoint support from
            # ``r_hat = b``).  Restart the recurrence with the current
            # residual as the fresh shadow vector — ``r̂·r = ‖r‖² > 0``
            # whenever we have not converged — at the cost of this
            # iteration slot, so the ``maxiter`` budget still bounds the
            # total work.
            r_hat = r.copy()
            rho = alpha = omega = 1.0
            v = np.zeros_like(b)
            p = np.zeros_like(b)
            rho_new = float(r_hat @ r)
            if rho_new == 0.0:
                return KrylovResult(
                    x, False, k, residuals or [r_norm / b_norm]
                )
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        p_hat = M(p)
        v = matvec(p_hat)
        denom = float(r_hat @ v)
        if denom == 0.0:
            return KrylovResult(x, False, k, residuals or [r_norm / b_norm])
        alpha = rho / denom
        s = r - alpha * v
        s_norm = float(np.linalg.norm(s))
        if s_norm <= threshold:
            x = x + alpha * p_hat
            residuals.append(s_norm / b_norm)
            return KrylovResult(x, True, k + 1, residuals)
        s_hat = M(s)
        t = matvec(s_hat)
        tt = float(t @ t)
        if tt == 0.0:
            return KrylovResult(x, False, k, residuals or [r_norm / b_norm])
        omega = float(t @ s) / tt
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        r_norm = float(np.linalg.norm(r))
        residuals.append(r_norm / b_norm)
        if r_norm <= threshold:
            return KrylovResult(x, True, k + 1, residuals)
    return KrylovResult(x, False, maxiter, residuals)


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
    restart: int = 50,
) -> KrylovResult:
    """Right-preconditioned restarted GMRES with Givens rotations.

    ``maxiter`` counts *inner* iterations (matvecs), not restart cycles,
    so iteration ceilings mean the same thing for both methods.  The
    residual history is the recurrence estimate (exact in exact
    arithmetic); the final true residual is re-checked by the caller.
    """
    n = b.shape[0]
    maxiter = 10 * n if maxiter is None else int(maxiter)
    restart = max(1, min(int(restart), n, maxiter))
    M = precond if precond is not None else (lambda v: v)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return KrylovResult(np.zeros_like(b), True, 0, [0.0])
    threshold = _stop_threshold(b_norm, tol, atol)
    residuals: List[float] = []
    total = 0

    while total < maxiter:
        r = b - matvec(x)
        beta = float(np.linalg.norm(r))
        if beta <= threshold:
            return KrylovResult(x, True, total, residuals or [beta / b_norm])
        m = min(restart, maxiter - total)
        # Arnoldi basis (preconditioned directions kept for the update).
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta
        j_done = 0
        for j in range(m):
            Z[j] = M(V[j])
            w = matvec(Z[j])
            for i in range(j + 1):
                H[i, j] = float(w @ V[i])
                w -= H[i, j] * V[i]
            h_next = float(np.linalg.norm(w))  # pre-rotation H[j+1, j]
            # Apply the accumulated Givens rotations to the new column.
            for i in range(j):
                hi, hj = H[i, j], H[i + 1, j]
                H[i, j] = cs[i] * hi + sn[i] * hj
                H[i + 1, j] = -sn[i] * hi + cs[i] * hj
            denom = float(np.hypot(H[j, j], h_next))
            if denom == 0.0:
                break  # total stagnation; use the columns built so far
            cs[j] = H[j, j] / denom
            sn[j] = h_next / denom
            H[j, j] = denom
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j_done = j + 1
            total += 1
            residuals.append(abs(float(g[j + 1])) / b_norm)
            if abs(float(g[j + 1])) <= threshold or h_next == 0.0:
                break  # converged, or happy breakdown (exact solution)
            V[j + 1] = w / h_next
        if j_done == 0:
            return KrylovResult(x, False, total, residuals or [beta / b_norm])
        # Back-substitution on the j_done×j_done triangular system.
        y = np.zeros(j_done)
        for i in range(j_done - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1:j_done] @ y[i + 1:j_done]) / H[i, i]
        x = x + y @ Z[:j_done]
        if abs(float(g[j_done])) <= threshold:
            return KrylovResult(x, True, total, residuals)
    return KrylovResult(x, False, total, residuals)


_METHODS = {"bicgstab": bicgstab, "gmres": gmres}
_PRECONDITIONERS = ("ilu", "jacobi", None)


class KrylovSolver(FactorizedSolver, op="krylov_solve"):
    """A differentiable matrix-free iterative solver for sparse systems.

    Joins :class:`~repro.autodiff.linalg.LUSolver` and
    :class:`~repro.autodiff.sparse.SparseLUSolver` behind
    :func:`~repro.autodiff.sparse.make_linear_solver`: the same
    :class:`~repro.autodiff.linalg.FactorizedSolver` interface
    (``__call__`` on the tape, ``solve_numpy``, ``solve_transposed``,
    ``solve_block``), but the "factorisation" is the preconditioner, the
    forward solve is a preconditioned Krylov iteration and the adjoint
    solve runs the *transposed* preconditioned iteration — implicit
    differentiation, independent of the forward iteration count, never
    the dense or factored inverse.  Only the operator
    (CSR + its transpose) and the nnz-bounded preconditioner are stored,
    so memory stays ``O(nnz)`` at any cloud size.

    Parameters
    ----------
    A:
        Square ``scipy.sparse`` matrix.
    method:
        ``"bicgstab"`` (default — short recurrence, two matvecs per
        iteration) or ``"gmres"`` (restarted; monotone residuals).
    preconditioner:
        ``"ilu"`` (default), ``"jacobi"``, or ``None``.
    tol, atol:
        Relative/absolute residual tolerances (2-norm); convergence means
        ``‖b − Ax‖ ≤ max(tol·‖b‖, atol)``.
    maxiter:
        Inner-iteration ceiling; defaults to ``10·n``.
    restart:
        GMRES restart length (ignored by BiCGSTAB).
    fallback:
        On non-convergence, complete the solve with a direct sparse
        factorisation (built lazily, once) instead of raising.

    Telemetry: with a trace recorder installed
    (:func:`~repro.obs.recorder.recording`) every solve emits a
    ``solve`` event with its iteration count and final relative
    residual, the preconditioner build emits ``factorize``, and
    failures emit ``"failure"``/``"fallback"``.
    """

    solver_name = "sparse-krylov"

    def __init__(
        self,
        A,
        *,
        method: str = "bicgstab",
        preconditioner: Optional[str] = "ilu",
        tol: float = 1e-10,
        atol: float = 0.0,
        maxiter: Optional[int] = None,
        restart: int = 50,
        fallback: bool = False,
        ilu_drop_tol: float = 1e-4,
        ilu_fill_factor: float = 10.0,
    ) -> None:
        if not sp.issparse(A):
            raise TypeError(
                "KrylovSolver expects a scipy.sparse matrix; dense systems "
                "take the LUSolver path"
            )
        if A.shape[0] != A.shape[1]:
            raise ValueError(
                f"KrylovSolver expects a square matrix, got {A.shape}"
            )
        if method not in _METHODS:
            raise ValueError(
                f"unknown Krylov method {method!r}; expected one of "
                f"{sorted(_METHODS)}"
            )
        if preconditioner not in _PRECONDITIONERS:
            raise ValueError(
                f"unknown preconditioner {preconditioner!r}; expected "
                f"'ilu', 'jacobi' or None"
            )
        self.A = sp.csr_matrix(A).astype(np.float64)
        self.AT = self.A.T.tocsr()
        self.n = self.A.shape[0]
        self.nnz = int(self.A.nnz)
        self.method = method
        self.preconditioner = preconditioner
        self.tol = float(tol)
        self.atol = float(atol)
        self.maxiter = 10 * self.n if maxiter is None else int(maxiter)
        self.restart = int(restart)
        self.fallback = bool(fallback)
        self.ilu_drop_tol = float(ilu_drop_tol)
        self.ilu_fill_factor = float(ilu_fill_factor)

        self.n_factorizations = 0  # preconditioner (+ lazy fallback) builds
        self.n_solves = 0
        self.n_fallbacks = 0
        self.last_iterations = 0
        self.last_residuals: List[float] = []
        self._direct = None  # lazy splu, built on first fallback

        t0 = time.perf_counter()
        with _span(
            "krylov.precond_build", "solver",
            {"n": self.n, "kind": str(preconditioner)},
        ):
            self._build_preconditioner()
        self.n_factorizations += 1
        get_registry().counter("krylov.precond_builds").inc()
        rec = current_recorder()
        if rec is not None:
            rec.solver_event(self.solver_name, "factorize", n=self.n,
                             seconds=time.perf_counter() - t0, nnz=self.nnz)

    # -- preconditioner ------------------------------------------------
    def _build_preconditioner(self) -> None:
        if self.preconditioner == "jacobi":
            d = self.A.diagonal().copy()
            d[d == 0.0] = 1.0
            inv_d = 1.0 / d
            self._M = lambda v: inv_d * v
            self._MT = self._M  # diagonal: self-transposed
        elif self.preconditioner == "ilu":
            # Incomplete LU of the sparse RBF-FD operator: drop tolerance
            # and fill-factor cap keep the factor nnz-bounded (a small
            # multiple of the stencil pattern), unlike the exact splu
            # factorisation whose fill-in grows superlinearly with N.
            # The factorisation runs on the *row-equilibrated* matrix
            # ``D⁻¹A`` (D = per-row max magnitude): collocation systems
            # mix unit Dirichlet rows with ``O(h⁻²)`` stencil rows, and
            # that scale spread makes ILUTP's relative dropping produce
            # exactly singular pivots from a few thousand nodes.  The
            # preconditioner application folds ``D⁻¹`` back in
            # (``M⁻¹ = ILU⁻¹D⁻¹``, ``M⁻ᵀ = D⁻¹ILU⁻ᵀ``), so the operator
            # — and therefore every residual and the adjoint identity —
            # is untouched.  A modified-ILU retry (SuperLU's SMILU-2,
            # shifting dropped mass onto the diagonal) backstops any
            # remaining singular pivot at the same nnz budget.
            rownorm = np.ones(self.n)
            nz = np.diff(self.A.indptr) > 0
            if self.A.nnz:
                # reduceat over the non-empty rows' start offsets: each
                # segment spans exactly one row's stored entries.
                rownorm[nz] = np.maximum.reduceat(
                    np.abs(self.A.data), self.A.indptr[:-1][nz]
                )
            inv_d = 1.0 / np.maximum(rownorm, 1e-300)
            Ac = sp.csc_matrix(sp.diags(inv_d) @ self.A)
            try:
                ilu = spla.spilu(
                    Ac,
                    drop_tol=self.ilu_drop_tol,
                    fill_factor=self.ilu_fill_factor,
                )
            except RuntimeError:
                get_registry().counter("krylov.precond_retries").inc()
                ilu = spla.spilu(
                    Ac,
                    drop_tol=self.ilu_drop_tol,
                    fill_factor=self.ilu_fill_factor,
                    options={"ILU_MILU": "SMILU_2"},
                )
            self._M = lambda v: ilu.solve(np.ascontiguousarray(inv_d * v))
            self._MT = lambda v: inv_d * ilu.solve(
                np.ascontiguousarray(v), trans="T"
            )
        else:
            self._M = None
            self._MT = None

    def _precond(self, trans: bool) -> Optional[Callable]:
        if self._M is None:
            return None
        apply_ = self._MT if trans else self._M
        counter = get_registry().counter("krylov.precond_applies")

        def wrapped(v: np.ndarray) -> np.ndarray:
            counter.inc()
            return apply_(v)

        return wrapped

    # -- direct fallback -----------------------------------------------
    def _direct_solve(self, b: np.ndarray, trans: bool) -> np.ndarray:
        if self._direct is None:
            with _span("krylov.fallback_factorize", "solver", {"n": self.n}):
                self._direct = spla.splu(sp.csc_matrix(self.A))
            self.n_factorizations += 1
            get_registry().counter("krylov.fallback_factorizations").inc()
        return self._direct.solve(
            np.ascontiguousarray(b), trans="T" if trans else "N"
        )

    # -- the core iterative solve (NumPy vectors, no tape) -------------
    def _solve_vec(self, b: np.ndarray, trans: bool) -> np.ndarray:
        op = self.AT if trans else self.A
        matvec = op.__matmul__
        run = _METHODS[self.method]
        kwargs = {"restart": self.restart} if self.method == "gmres" else {}
        t0 = time.perf_counter()
        with _span(
            "krylov.solve", "solver",
            {"n": self.n, "method": self.method, "adjoint": bool(trans)},
        ):
            res = run(
                matvec,
                np.ascontiguousarray(b, dtype=np.float64),
                precond=self._precond(trans),
                tol=self.tol,
                atol=self.atol,
                maxiter=self.maxiter,
                **kwargs,
            )
        seconds = time.perf_counter() - t0
        self.last_iterations = res.iterations
        self.last_residuals = res.residuals
        reg = get_registry()
        reg.counter("krylov.solves").inc()
        reg.counter("krylov.iterations").inc(res.iterations)
        final = res.residuals[-1] if res.residuals else np.inf
        converged = res.converged
        if converged:
            # Trust but verify: one extra matvec confirms the method's
            # claim on the *true* residual, so a drifted GMRES recurrence
            # estimate can never produce a silently-unconverged solution.
            b_norm = float(np.linalg.norm(b))
            if b_norm > 0.0:
                true_r = float(np.linalg.norm(b - op @ res.x))
                final = true_r / b_norm
                if true_r > 10.0 * _stop_threshold(b_norm, self.tol, self.atol):
                    converged = False
        wd = current_watchdog()
        if wd is not None:
            wd.observe_krylov(self.n, res.iterations, converged=converged)
        rec = current_recorder()
        if rec is not None:
            if converged:
                event = "adjoint" if trans else "solve"
            else:
                event = "fallback" if self.fallback else "failure"
            rec.solver_event(
                self.solver_name, event, n=self.n, seconds=seconds,
                residual=final, nnz=self.nnz, iterations=res.iterations,
            )
        if converged:
            return res.x
        reg.counter("krylov.failures").inc()
        if not self.fallback:
            raise KrylovConvergenceError(
                self.method, self.n, res.iterations, final, self.tol
            )
        self.n_fallbacks += 1
        reg.counter("krylov.fallbacks").inc()
        return self._direct_solve(b, trans)

    def _solve(self, b: np.ndarray, trans: bool) -> np.ndarray:
        """Solve for one vector or a column block, counting one solve."""
        self.n_solves += 1
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            return self._solve_vec(b, trans)
        # Column block (n, k): one independent iteration per column —
        # the iterative analogue of a multi-RHS triangular solve.  Each
        # column runs exactly the code path a 1-D solve would, so block
        # and per-vector results are bitwise identical.
        out = np.empty_like(b)
        for j in range(b.shape[1]):
            out[:, j] = self._solve_vec(np.ascontiguousarray(b[:, j]), trans)
        return out


@primitive("krylov_pattern_solve")
def krylov_pattern_solve(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
    data: ArrayLike,
    b: ArrayLike,
    **options,
) -> Tensor:
    """Iterative solve where the matrix *values* live on the tape.

    The Krylov sibling of
    :func:`~repro.autodiff.sparse.sparse_pattern_solve`: ``A = csr((data,
    (rows, cols)), shape)`` with a fixed pattern and Tensor-valued
    entries.  The VJP w.r.t. ``b`` is the transposed iterative solve; the
    VJP w.r.t. the pattern values is its sparse restriction

    .. math::

        \\bar d_k = -w_{r_k} x_{c_k}, \\qquad A^T w = \\bar x ,

    evaluated as a gather — never a dense outer product.  ``options``
    are forwarded to :class:`KrylovSolver` (method, tolerance, maxiter,
    preconditioner, fallback).
    """
    return _pattern_solve(
        "krylov_pattern_solve", lambda A: KrylovSolver(A, **options),
        rows, cols, shape, data, b,
    )
