"""Differentiable dense linear algebra.

:func:`solve` is the primitive that makes the *discretise-then-optimise*
strategy possible: differentiating ``x = A^{-1} b`` does **not** retain the
elementary operations of the factorisation.  Instead the adjoint system
``A^T w = g`` is solved in the backward pass, giving

.. math::

    \\bar b = A^{-T} \\bar x, \\qquad \\bar A = -\\bar b \\, x^T .

This is mathematically identical to the discrete adjoint method (and to
what JAX's ``jax.numpy.linalg.solve`` records), so the DP method obtains
*exact* discrete gradients at the cost of one extra triangular solve per
linear system — the property the paper calls the "gold standard".

The LU factorisation computed in the forward pass is cached on the tape
node and reused in the backward pass, halving the factorisation cost.

:func:`row_scaled_solve` is the structured variant for matrices of the
form ``diag(s1)·M1 + diag(s2)·M2 + C``: only the row scales are on the
tape, so its VJPs stay ``O(n²)`` and never materialise ``Ā``.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg as sla

from repro.autodiff.batching import composite, primitive
from repro.autodiff.tensor import ArrayLike, Tensor, asdata, make_node, tensor
from repro.autodiff import ops
from repro.obs.metrics import get_registry


@primitive("solve")
def solve(A: ArrayLike, b: ArrayLike, assume_a: str = "gen") -> Tensor:
    """Differentiable solution of the linear system ``A x = b``.

    Parameters
    ----------
    A:
        ``(n, n)`` matrix, dense.  May require gradients (needed for the
        Navier–Stokes DP path where the advection operator depends on the
        previous velocity iterate).
    b:
        ``(n,)`` vector or ``(n, k)`` block of right-hand sides.
    assume_a:
        ``"gen"`` (general LU) or ``"pos"`` (Cholesky); anything else
        raises ``ValueError``.

    Returns
    -------
    Tensor
        ``x`` with a VJP that solves the adjoint (transposed) system.
    """
    if assume_a not in ("gen", "pos"):
        raise ValueError(f"assume_a must be 'gen' or 'pos', got {assume_a!r}")
    tA, tb = tensor(A), tensor(b)
    Ad, bd = tA.data, tb.data
    if Ad.ndim != 2 or Ad.shape[0] != Ad.shape[1]:
        raise ValueError(f"solve expects a square matrix, got {Ad.shape}")

    # The factorisation lives in a one-slot holder so the replay closure
    # can refresh it when the matrix values change between replays (the
    # NS momentum matrix depends on the previous velocity iterate); the
    # VJPs read through the holder and always see the current factors.
    if assume_a == "pos":
        holder = [sla.cho_factor(Ad, check_finite=False)]
        x = np.asarray(sla.cho_solve(holder[0], bd, check_finite=False))

        def refactor() -> None:
            holder[0] = sla.cho_factor(Ad, check_finite=False)

        def solve_T(g: np.ndarray) -> np.ndarray:
            return sla.cho_solve(holder[0], g, check_finite=False)  # symmetric

        def fwd(o: np.ndarray) -> None:
            if a_on_tape:
                refactor()
            o[...] = sla.cho_solve(holder[0], bd, check_finite=False)

    else:
        holder = [sla.lu_factor(Ad, check_finite=False)]
        x = np.asarray(sla.lu_solve(holder[0], bd, check_finite=False))

        def refactor() -> None:
            holder[0] = sla.lu_factor(Ad, check_finite=False)

        def solve_T(g: np.ndarray) -> np.ndarray:
            return sla.lu_solve(holder[0], g, trans=1, check_finite=False)

        def fwd(o: np.ndarray) -> None:
            if a_on_tape:
                refactor()
            o[...] = sla.lu_solve(holder[0], bd, check_finite=False)

    a_on_tape = tA.needs_tape()

    def vjp_b(g: np.ndarray) -> np.ndarray:
        return solve_T(g)

    def vjp_A(g: np.ndarray) -> np.ndarray:
        w = solve_T(g)
        if x.ndim == 1:
            return -np.outer(w, x)
        return -(w @ x.T)

    # Lowering metadata documents the operands (useful for IR dumps and
    # buffer-liveness analysis); the op itself stays opaque to codegen —
    # the factorisation lives in the closures, so codegen calls back into
    # them (F/V callbacks) rather than emitting symbolic source.
    return make_node(
        x, [(tA, vjp_A), (tb, vjp_b)], "solve", fwd=fwd,
        meta=((Ad, bd), {"assume_a": assume_a}),
    )


def _const_matrix(M: ArrayLike, name: str, n: int) -> np.ndarray:
    if isinstance(M, Tensor) and M.needs_tape():
        raise TypeError(f"row_scaled_solve: {name} must be a constant matrix")
    M = asdata(M)
    if M.shape != (n, n):
        raise ValueError(
            f"row_scaled_solve: {name} has shape {M.shape}, expected {(n, n)}"
        )
    return M


@primitive("row_scaled_solve")
def row_scaled_solve(
    s1: ArrayLike,
    s2: ArrayLike,
    M1: ArrayLike,
    M2: ArrayLike,
    C: ArrayLike,
    b: ArrayLike,
) -> Tensor:
    """Differentiable solve of ``(diag(s1)·M1 + diag(s2)·M2 + C) x = b``.

    The dense counterpart of
    :func:`~repro.autodiff.sparse.sparse_pattern_solve`: the matrix values
    depend on the tape only through the row scales ``s1``, ``s2`` (``(n,)``
    tensors), while ``M1``, ``M2`` and ``C`` are constant ``(n, n)``
    arrays.  ``A`` is assembled in NumPy and LU-factorised once; every
    column of ``b`` (``(n,)`` or ``(n, k)``) is solved against that one
    factorisation, one column at a time so each matches a per-vector
    solve bit for bit.  Restricting ``Ā = −W xᵀ`` to the parameterisation
    gives VJPs that never form an ``n×n`` array:

    .. math::

        W = A^{-T} \\bar x, \\qquad \\bar b = W, \\qquad
        \\bar s_i = -\\textstyle\\sum_{\\text{cols}} W \\odot (M_i x) .

    ``W`` costs one transposed ``getrs`` on the cached factors, shared by
    all three VJPs.  The tape therefore keeps one LU factor plus ``O(n)``
    vectors per call — this is the Navier–Stokes DP momentum solve,
    ``s1 = mask·u``, ``s2 = mask·v``, ``M1 = ∂x``, ``M2 = ∂y``.
    """
    ts1, ts2, tb = tensor(s1), tensor(s2), tensor(b)
    s1d, s2d, bd = ts1.data, ts2.data, tb.data
    if s1d.ndim != 1 or s2d.shape != s1d.shape:
        raise ValueError(
            f"row_scaled_solve: scales must be two (n,) vectors, got "
            f"{s1d.shape} and {s2d.shape}"
        )
    n = s1d.shape[0]
    M1, M2, C = (
        _const_matrix(M, name, n) for M, name in ((M1, "M1"), (M2, "M2"), (C, "C"))
    )
    if bd.ndim not in (1, 2) or bd.shape[0] != n:
        raise ValueError(
            f"row_scaled_solve: b has shape {bd.shape}, expected ({n},) or ({n}, k)"
        )

    # One-slot holders, as in :func:`solve`: replay re-factorises from the
    # current scale buffers, and the VJPs read through the holder.
    holder = [None]
    memo = [None, None]  # (cotangent, W) for the current factors

    def factor() -> None:
        A = np.multiply(s1d[:, None], M1, order="F")
        A += s2d[:, None] * M2
        A += C
        holder[0] = sla.lu_factor(A, overwrite_a=True, check_finite=False)
        memo[0] = None
        get_registry().counter("linalg.dense.factorizations").inc()

    def solve_columns(out: np.ndarray) -> None:
        # Column by column: a multi-RHS ``getrs`` is not bit-identical to
        # per-vector solves, and the NumPy NS solver solves per vector.
        if bd.ndim == 1:
            out[...] = sla.lu_solve(holder[0], bd, check_finite=False)
            return
        for j in range(bd.shape[1]):
            out[:, j] = sla.lu_solve(holder[0], bd[:, j], check_finite=False)

    factor()
    x = np.empty_like(bd)
    solve_columns(x)
    scales_on_tape = ts1.needs_tape() or ts2.needs_tape()

    def adjoint(g: np.ndarray) -> np.ndarray:
        # The VJPs of one backward step all receive the same cotangent;
        # compare by value (replay reuses the buffer) so they share W.
        # W is handed out more than once, hence read-only.
        if memo[0] is None or not np.array_equal(memo[0], g):
            w = sla.lu_solve(holder[0], g, trans=1, check_finite=False)
            w.flags.writeable = False
            memo[0], memo[1] = np.array(g), w
        return memo[1]

    def scale_vjp(M: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        def vjp(g: np.ndarray) -> np.ndarray:
            prod = adjoint(g) * (M @ x)
            return -(prod if prod.ndim == 1 else prod.sum(axis=1))

        return vjp

    def fwd(o: np.ndarray) -> None:
        if scales_on_tape:
            factor()
        solve_columns(o)

    # Opaque to codegen like :func:`solve`: the factors live in the
    # closures, which the generated source calls back into.
    return make_node(
        x, [(ts1, scale_vjp(M1)), (ts2, scale_vjp(M2)), (tb, adjoint)],
        "row_scaled_solve", fwd=fwd, meta=((s1d, s2d, M1, M2, C, bd), None),
    )


class LUSolver:
    """A differentiable solver with a *cached* LU factorisation.

    For optimal-control loops the system matrix is constant across
    iterations (Laplace: the collocation matrix never changes; NS: the
    pressure-Poisson matrix is fixed).  Factorising once and reusing the
    factors for every forward *and* backward (transposed) solve turns the
    per-iteration cost from O(n³) to O(n²) — this is what makes the scaled
    benchmark runs tractable and mirrors ``jax.scipy.linalg.lu_solve``
    composition under ``jit``.

    ``n_factorizations``/``n_solves`` mirror the counters on
    :class:`~repro.autodiff.sparse.SparseLUSolver`, so the telemetry
    layer reports factorise-once/solve-many behaviour uniformly across
    backends.
    """

    solver_name = "dense-lu"
    nnz = None  # dense storage: no sparsity to report

    def __init__(self, A: np.ndarray) -> None:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"LUSolver expects a square matrix, got {A.shape}")
        self.n = A.shape[0]
        self._lu = sla.lu_factor(A, check_finite=False)
        self.n_factorizations = 1
        self.n_solves = 0
        get_registry().counter("linalg.dense.factorizations").inc()
        # Bind LAPACK ``getrs`` once: ``scipy.linalg.lu_solve`` dispatches
        # to the same routine but re-validates inputs on every call, which
        # dominates small solves in the replay hot loop.  Results are
        # bit-identical — it is literally the same LAPACK call.
        lu_mat, self._piv = self._lu
        self._lu_f = np.asfortranarray(lu_mat)
        (self._getrs,) = sla.get_lapack_funcs(("getrs",), (self._lu_f,))

    def _solve(self, b: np.ndarray, trans: int = 0) -> np.ndarray:
        self.n_solves += 1
        get_registry().counter("linalg.dense.solves").inc()
        x, info = self._getrs(self._lu_f, self._piv, b, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"getrs failed with info={info}")
        return x

    @primitive("lu_solve")
    def __call__(self, b: ArrayLike) -> Tensor:
        """Solve ``A x = b`` differentiably w.r.t. ``b``."""
        tb = tensor(b)
        bd = tb.data
        x = self._solve(bd)

        def vjp_b(g: np.ndarray) -> np.ndarray:
            return self._solve(g, trans=1)

        # Constant matrix: replay re-solves with the cached factors.
        def fwd(o: np.ndarray, bd=bd) -> None:
            o[...] = self._solve(bd)

        # Operand metadata only; stays opaque to codegen (cached factors
        # live in the solver object, reached via closure callbacks).
        return make_node(
            x, [(tb, vjp_b)], "lu_solve", fwd=fwd, meta=((bd,), None)
        )

    def solve_block(self, b_block: ArrayLike) -> Tensor:
        """Solve an ``(N, n)`` row-block of right-hand sides at once.

        The block is transposed into LAPACK's native ``(n, N)`` column
        layout so ONE ``getrs`` call against the cached factors serves
        all N systems — and the adjoint pass mirrors it: the transposed
        solve in the VJP receives the cotangent block in the same layout
        and batches through a single ``getrs(trans=1)``.  This is the
        arrangement the :mod:`~repro.autodiff.batching` solve rule emits.
        """
        return ops.transpose(self(ops.transpose(b_block)))

    def solve_numpy(self, b: np.ndarray) -> np.ndarray:
        """Plain NumPy solve (no tape)."""
        return self._solve(np.asarray(b, dtype=np.float64))

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` (the adjoint system) without taping."""
        return self._solve(np.asarray(b, dtype=np.float64), trans=1)


@primitive("lstsq")
def lstsq(A: ArrayLike, b: ArrayLike, rcond: Optional[float] = None) -> Tensor:
    """Differentiable least-squares solution ``argmin_x ||A x - b||``.

    Only the right-hand side ``b`` is differentiated (sufficient for the
    solver paths in this repository where collocation matrices are constant
    w.r.t. the control); the VJP solves the normal-equation adjoint
    ``(A^T A) w = g`` and maps back via ``A w``.
    """
    tA, tb = tensor(A), tensor(b)
    Ad, bd = tA.data, tb.data
    x, *_ = np.linalg.lstsq(Ad, bd, rcond=rcond)
    gram = Ad.T @ Ad

    def vjp_b(g: np.ndarray) -> np.ndarray:
        w = np.linalg.solve(gram, g)
        return Ad @ w

    def fwd(o: np.ndarray) -> None:
        o[...] = np.linalg.lstsq(Ad, bd, rcond=rcond)[0]

    # Operand metadata only; opaque to codegen (normal-equation adjoint
    # runs through the recorded closures).
    return make_node(
        x, [(tb, vjp_b)], "lstsq", fwd=fwd,
        meta=((Ad, bd), {"rcond": rcond}),
    )


@composite
def norm(a: ArrayLike, ord: Union[int, float] = 2) -> Tensor:
    """Differentiable vector norm (2-norm or 1-norm)."""
    if ord == 2:
        return ops.sqrt(ops.sum_(ops.square(a)))
    if ord == 1:
        return ops.sum_(ops.abs_(a))
    raise ValueError(f"unsupported norm order {ord!r}")
