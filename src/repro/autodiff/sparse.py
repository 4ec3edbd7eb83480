"""Differentiable sparse linear algebra — the RBF-FD fast path.

The dense primitives in :mod:`repro.autodiff.linalg` lock the DP and DAL
strategies to ``O(N³)`` factorisations of the global collocation matrix.
Local RBF-FD (:mod:`repro.rbf.local`) assembles operators with a fixed
number of nonzeros per row, so the same *discretise-then-optimise* adjoint
identity

.. math::

    \\bar b = A^{-T} \\bar x, \\qquad \\bar A = -\\bar b \\, x^T

can be evaluated with one sparse ``splu`` factorisation reused for the
forward and the transposed (adjoint) solve.  Three entry points:

- :func:`sparse_solve` — one-shot solve against a *constant* sparse
  matrix, differentiable w.r.t. the right-hand side;
- :class:`SparseLUSolver` — factorise once, solve many (mirrors the dense
  :class:`~repro.autodiff.linalg.LUSolver`), used by the control loops
  where the system matrix never changes;
- :func:`sparse_pattern_solve` — solve with a matrix whose *values* live
  on the tape (fixed sparsity pattern, Tensor-valued entries).  This is
  what lets Navier–Stokes DP differentiate through the dependence of the
  momentum matrix on the previous velocity iterate without densifying:
  the VJP w.r.t. the nonzero values is ``-w[row] · x[col]`` — the sparse
  restriction of the dense ``-w xᵀ``.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.autodiff.batching import primitive
from repro.autodiff.linalg import FactorizedSolver, LUSolver
from repro.autodiff.tensor import ArrayLike, Tensor, make_node, tensor
from repro.obs.metrics import get_registry


def _splu(A) -> spla.SuperLU:
    """Factorise a sparse matrix (any format) with SuperLU."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"sparse solve expects a square matrix, got {A.shape}")
    return spla.splu(A.astype(np.float64))


@primitive("sparse_solve")
def sparse_solve(A, b: ArrayLike) -> Tensor:
    """Differentiable solution of ``A x = b`` for a constant sparse ``A``.

    Parameters
    ----------
    A:
        ``(n, n)`` ``scipy.sparse`` matrix.  Treated as a constant (no
        gradient); use :func:`sparse_pattern_solve` when the matrix values
        themselves depend on tape tensors.
    b:
        ``(n,)`` vector or ``(n, k)`` block of right-hand sides.

    Returns
    -------
    Tensor
        ``x`` with a VJP that solves the transposed (adjoint) system with
        the *same* factorisation.
    """
    if not sp.issparse(A):
        raise TypeError(
            "sparse_solve expects a scipy.sparse matrix; "
            "use autodiff.linalg.solve for dense systems"
        )
    lu = _splu(A)
    tb = tensor(b)
    bd = tb.data
    x = lu.solve(np.ascontiguousarray(bd))

    def vjp_b(g: np.ndarray) -> np.ndarray:
        return lu.solve(np.ascontiguousarray(g), trans="T")

    def fwd(o: np.ndarray) -> None:
        o[...] = lu.solve(np.ascontiguousarray(bd))

    # Operand metadata only; opaque to codegen (SuperLU factors live
    # in the closures, reached via callback).
    return make_node(
        x, [(tb, vjp_b)], "sparse_solve", fwd=fwd, meta=((bd,), None)
    )


@primitive("sparse_matvec")
def sparse_matvec(M, x: ArrayLike) -> Tensor:
    """Differentiable product ``M @ x`` for a constant sparse matrix.

    The sparse counterpart of ``ops.matmul`` with a constant left factor:
    the VJP is ``Mᵀ g``, again a sparse product — nodal differentiation
    matrices stay sparse through the whole reverse pass.
    """
    if not sp.issparse(M):
        raise TypeError("sparse_matvec expects a scipy.sparse matrix")
    tx = tensor(x)
    xd = tx.data
    out = M @ xd
    MT = M.T.tocsr()

    def vjp_x(g: np.ndarray) -> np.ndarray:
        return MT @ g

    def fwd(o: np.ndarray) -> None:
        o[...] = M @ xd

    # Operand metadata only; opaque to codegen (the sparse matrix is
    # not an ndarray the emitter can inline).
    return make_node(
        out, [(tx, vjp_x)], "sparse_matvec", fwd=fwd, meta=((xd,), None)
    )


def _pattern_solve(
    name: str,
    factorize: Callable[[sp.csr_matrix], FactorizedSolver],
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
    data: ArrayLike,
    b: ArrayLike,
) -> Tensor:
    """The body of every pattern solve: ``factorize`` is the only difference.

    ``A = csr((data, (rows, cols)), shape)`` is handed to ``factorize``
    (a :class:`FactorizedSolver` constructor); the node is recorded as
    primitive ``name``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    td, tb = tensor(data), tensor(b)
    if td.data.shape != rows.shape:
        raise ValueError(
            f"data has shape {td.data.shape}, pattern has {rows.shape}"
        )
    dd, bd = td.data, tb.data

    def build() -> FactorizedSolver:
        return factorize(sp.csr_matrix((dd, (rows, cols)), shape=shape))

    # One-slot holder: the forward-replay closure re-assembles and
    # re-factorises from the *current* pattern values (they live on the
    # tape and change between replays); the VJPs read through the holder
    # so the adjoint solves always use the matching factorisation.
    holder = [build()]
    x = holder[0].solve_numpy(bd)

    def vjp_b(g: np.ndarray) -> np.ndarray:
        return holder[0].solve_transposed(g)

    def vjp_data(g: np.ndarray) -> np.ndarray:
        w = holder[0].solve_transposed(g)
        if x.ndim == 1:
            return -w[rows] * x[cols]
        return -np.sum(w[rows] * x[cols], axis=1)

    def fwd(o: np.ndarray) -> None:
        holder[0] = build()
        o[...] = holder[0].solve_numpy(bd)

    return make_node(
        x, [(td, vjp_data), (tb, vjp_b)], name, fwd=fwd,
        meta=((dd, bd), {"shape": shape}),
    )


@primitive("sparse_pattern_solve")
def sparse_pattern_solve(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
    data: ArrayLike,
    b: ArrayLike,
) -> Tensor:
    """Differentiable solve where the matrix *values* are on the tape.

    ``A = csr((data, (rows, cols)), shape)`` with a fixed sparsity pattern
    ``(rows, cols)``; ``data`` may be a Tensor (e.g. assembled from the
    frozen-advection velocity).  Each call (and each replay) factorises
    ``A`` once with a :class:`SparseLUSolver`, and the VJP scatters the
    dense adjoint formula ``Ā = -w xᵀ`` onto the pattern only:

    .. math::

        \\bar d_k = -w_{r_k} x_{c_k} .

    Duplicate ``(row, col)`` entries are summed by the CSR constructor,
    and each duplicate receives the same (correct) cotangent.
    """
    return _pattern_solve(
        "sparse_pattern_solve", SparseLUSolver, rows, cols, shape, data, b
    )


class SparseLUSolver(FactorizedSolver, op="sparse_lu_solve"):
    """A differentiable sparse solver with a cached ``splu`` factorisation.

    The sparse sibling of :class:`~repro.autodiff.linalg.LUSolver`: the
    control loops' system matrices are constant across iterations, so the
    symbolic + numeric factorisation happens exactly once and every
    forward *and* transposed (adjoint) solve reuses it — factorise-once,
    solve-many.  ``n_factorizations`` counts numeric factorisations and
    ``n_solves`` counts triangular solves against the cached factors, so
    regression tests (and the telemetry layer's cache records) can assert
    the cache is actually hit.  SuperLU's multi-RHS solve is bitwise equal
    to per-column solves for the narrow blocks used here (observed up to
    ~50 columns).
    """

    solver_name = "sparse-splu"

    def __init__(self, A) -> None:
        if not sp.issparse(A):
            raise TypeError(
                "SparseLUSolver expects a scipy.sparse matrix; "
                "use LUSolver for dense systems"
            )
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(
                f"SparseLUSolver expects a square matrix, got {A.shape}"
            )
        self.n = A.shape[0]
        self.nnz = A.nnz
        self._lu = spla.splu(A.astype(np.float64))
        self.n_factorizations = 1
        self.n_solves = 0
        get_registry().counter("linalg.sparse.factorizations").inc()

    def _solve(self, b: np.ndarray, transposed: bool) -> np.ndarray:
        self.n_solves += 1
        get_registry().counter("linalg.sparse.solves").inc()
        return self._lu.solve(
            np.ascontiguousarray(b), trans="T" if transposed else "N"
        )


def make_linear_solver(A, solver: str = "direct", **options) -> FactorizedSolver:
    """Build the differentiable solver matching ``A``'s storage and ``solver``.

    The single dispatch point that lets the DP/DAL oracles run on any
    backend from one flag (the ``solver`` field of
    :class:`~repro.pde.laplace.LaplaceControlProblem`,
    :class:`~repro.pde.navier_stokes.ChannelFlowProblem` and
    :class:`~repro.control.spec.RunSpec`):

    ==========  ===============  =============================================
    storage     ``solver``       solver
    ==========  ===============  =============================================
    dense       ``"direct"``     :class:`~repro.autodiff.linalg.LUSolver`
    sparse      ``"direct"``     :class:`SparseLUSolver`
    sparse      ``"iterative"``  :class:`~repro.autodiff.krylov.KrylovSolver`
    dense       ``"iterative"``  ``TypeError`` — the matrix-free path exists
                                 to *avoid* dense storage; densifying first
                                 would defeat it, so a wrong-backend pick
                                 fails loudly here instead of in a bench run
    ==========  ===============  =============================================

    Sparsity is decided by ``scipy.sparse.issparse`` (true for both the
    legacy ``*_matrix`` and the new ``*_array`` classes, and for every
    format — COO inputs are converted by the solver constructors).
    Objects that merely *duck-type* a sparse matrix (e.g. expose
    ``toarray``) are treated as dense operands, matching the behaviour
    of every other ``scipy.sparse`` consumer in the repository.

    All three subclass :class:`~repro.autodiff.linalg.FactorizedSolver`:
    ``__call__`` on the tape with the transposed solve as its VJP,
    ``solve_numpy``, ``solve_transposed`` and ``solve_block``.
    ``options`` are forwarded to
    :class:`~repro.autodiff.krylov.KrylovSolver` (``method``,
    tolerances, ``maxiter``, ``preconditioner``, ``fallback``, ...) and
    must be empty for the direct backends.  A Krylov solver reports to
    the installed trace recorder (:func:`~repro.obs.recorder.recording`).
    """
    if solver not in ("direct", "iterative"):
        raise ValueError(
            f"solver must be 'direct' or 'iterative', got {solver!r}"
        )
    if solver == "iterative":
        if not sp.issparse(A):
            raise TypeError(
                "the iterative (Krylov) backend requires a scipy.sparse "
                "operator; got a dense system — use solver='direct' or "
                "assemble with the local RBF-FD backend"
            )
        from repro.autodiff.krylov import KrylovSolver

        return KrylovSolver(A, **options)
    if options:
        raise TypeError(
            f"unexpected options for the direct backend: {sorted(options)}"
        )
    if sp.issparse(A):
        return SparseLUSolver(A)
    return LUSolver(A)
