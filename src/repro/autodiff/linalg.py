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
tape, so its VJPs stay ``O(n²)`` and never materialise ``Ā``.  Its
constant operands live in a :class:`RowScaledSystem`, which factorises
only the rows that are not unit rows of ``C``; NumPy callers use the same
kernel through :meth:`RowScaledSystem.factor`.
"""

from __future__ import annotations

import copy
from typing import Callable, Optional, Tuple, Union

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


def _const_matrix(M: ArrayLike, name: str, n: Optional[int] = None) -> np.ndarray:
    if isinstance(M, Tensor) and M.needs_tape():
        raise TypeError(f"RowScaledSystem: {name} must be a constant matrix")
    M = np.asarray(asdata(M), dtype=np.float64)
    if n is None:
        n = M.shape[0] if M.ndim == 2 else -1
    if M.shape != (n, n):
        raise ValueError(
            f"RowScaledSystem: {name} has shape {M.shape}, expected {(n, n)}"
        )
    return M


class RowScaledSystem:
    """The constant operands of ``(diag(s1)·M1 + diag(s2)·M2 + C) x = b``.

    Rows of ``C`` equal to a unit vector ``eᵢ`` (the set ``D``; the
    velocity-Dirichlet nodes of the NS momentum system) are detected here.
    While the scales vanish on them they fix ``x_D = b_D``, so only the
    other rows ``F`` are assembled and factorised:

    .. math::

        x_D = b_D, \\qquad A_{FF}\\, x_F = b_F - A_{FD}\\, b_D .

    The ``FF`` blocks are stored column-major, the layout LAPACK
    factorises in place, so every assembly pass is contiguous; the
    ``FD`` blocks serve the ``A_FD`` products.  ``C`` itself is kept only
    as these blocks (:attr:`C` rebuilds it); ``M1`` and ``M2`` are kept
    whole, as given, for the scale VJPs.  With no unit rows ``F`` is every
    row and this is the plain full solve.
    """

    def __init__(self, M1: ArrayLike, M2: ArrayLike, C: ArrayLike) -> None:
        self._set_constant(C)
        self.M1 = _const_matrix(M1, "M1", self.n)
        self.M2 = _const_matrix(M2, "M2", self.n)
        self._m_blocks = (self._split(self.M1), self._split(self.M2))
        # Bind LAPACK ``getrf``/``getrs`` once (:class:`LUSolver` binds
        # ``getrs`` the same way): ``scipy.linalg.lu_factor`` re-validates
        # its input and looks the routine up on every call.
        self._getrf, self._getrs = sla.get_lapack_funcs(
            ("getrf", "getrs"), (self._c_blocks[0],)
        )

    def _set_constant(self, C: ArrayLike, n: Optional[int] = None) -> None:
        C = _const_matrix(C, "C", n)
        self.n = C.shape[0]
        ones = np.flatnonzero(np.diagonal(C) == 1.0)
        self.fixed = ones[np.count_nonzero(C[ones], axis=1) == 1]
        free = np.ones(self.n, dtype=bool)
        free[self.fixed] = False
        self.free = np.flatnonzero(free)
        self._c_blocks = self._split(C)

    def _split(self, M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rows = M[self.free]  # rows first: several times faster than np.ix_
        return np.asfortranarray(rows[:, self.free]), rows[:, self.fixed]

    @property
    def C(self) -> np.ndarray:
        """``C`` reassembled from its unit rows and blocks."""
        F, D = self.free, self.fixed
        C = np.zeros((self.n, self.n))
        C[D, D] = 1.0
        C[np.ix_(F, F)], C[np.ix_(F, D)] = self._c_blocks
        return C

    def with_constant(self, C: ArrayLike) -> "RowScaledSystem":
        """The same ``M1``, ``M2`` with a new ``C``.

        The ``M`` blocks are shared with this system while ``C`` has the
        same unit rows, so a caller that builds one system per problem
        pays only for the ``C`` blocks.
        """
        other = copy.copy(self)
        other._set_constant(C, self.n)
        if not np.array_equal(other.fixed, self.fixed):
            other._m_blocks = (other._split(self.M1), other._split(self.M2))
        return other

    def factor(self, s1: np.ndarray, s2: np.ndarray) -> "RowScaledLU":
        """Assemble ``A_FF`` for the scales ``s1``, ``s2`` and LU-factorise it.

        An exactly singular ``A_FF`` raises ``np.linalg.LinAlgError``.
        """
        D = self.fixed
        if np.any(s1[D]) or np.any(s2[D]):
            raise ValueError(
                "RowScaledSystem: a row scale is nonzero on a unit row of C"
            )
        F = self.free
        s1F, s2F = s1[F], s2[F]
        (M1FF, _), (M2FF, _) = self._m_blocks
        A = np.multiply(s1F[:, None], M1FF, order="F")
        A += np.multiply(s2F[:, None], M2FF, order="F")
        A += self._c_blocks[0]
        if A.size:
            lu, piv, info = self._getrf(A, overwrite_a=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"getrf failed with info={info}"
                    + (" (A_FF is exactly singular)" if info > 0 else "")
                )
        else:  # every row is a unit row: nothing to factorise
            lu, piv = A, np.arange(0, dtype=np.int32)
        get_registry().counter("linalg.dense.factorizations").inc()
        return RowScaledLU(self, s1F, s2F, lu, piv)


class RowScaledLU:
    """One factorisation of a :class:`RowScaledSystem`'s ``A_FF``."""

    __slots__ = ("system", "s1F", "s2F", "lu", "piv")

    def __init__(self, system: RowScaledSystem, s1F: np.ndarray,
                 s2F: np.ndarray, lu: np.ndarray, piv: np.ndarray) -> None:
        self.system, self.s1F, self.s2F = system, s1F, s2F
        self.lu, self.piv = lu, piv

    def _getrs(self, b: np.ndarray, trans: int) -> np.ndarray:
        # ``b`` is always a temporary of ours, so it may be overwritten.
        x, info = self.system._getrs(
            self.lu, self.piv, b, trans=trans, overwrite_b=1
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"getrs failed with info={info}")
        return x

    def _solve_vector(self, b: np.ndarray, out: np.ndarray) -> None:
        sys_ = self.system
        F, D = sys_.free, sys_.fixed
        rhs = b[F]
        if D.size:
            bD = b[D]
            (_, M1FD), (_, M2FD) = sys_._m_blocks
            rhs -= (
                self.s1F * (M1FD @ bD)
                + self.s2F * (M2FD @ bD)
                + sys_._c_blocks[1] @ bD
            )
            out[D] = bD
        out[F] = self._getrs(rhs, 0)

    def solve(self, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x = A⁻¹ b`` for ``b`` of shape ``(n,)`` or ``(n, k)``.

        Column by column: a multi-RHS ``getrs`` is not bit-identical to
        per-vector solves, and callers rely on a column of a block solve
        matching the solve of that column alone.
        """
        out = np.empty_like(b) if out is None else out
        if b.ndim == 1:
            self._solve_vector(b, out)
        else:
            for j in range(b.shape[1]):
                self._solve_vector(b[:, j], out[:, j])
        return out

    def solve_transposed(self, g: np.ndarray) -> np.ndarray:
        """``W = A⁻ᵀ g``: ``W_F = A_FF⁻ᵀ g_F``, ``W_D = g_D − A_FDᵀ W_F``.

        One ``getrs(trans=1)`` for every column of ``g`` at once.
        """
        sys_ = self.system
        F, D = sys_.free, sys_.fixed
        W = np.empty_like(g)
        WF = W[F] = self._getrs(g[F], 1)
        if D.size:
            (_, M1FD), (_, M2FD) = sys_._m_blocks
            col = (slice(None),) + (None,) * (g.ndim - 1)
            W[D] = g[D] - (
                M1FD.T @ (self.s1F[col] * WF)
                + M2FD.T @ (self.s2F[col] * WF)
                + sys_._c_blocks[1].T @ WF
            )
        return W


@primitive("row_scaled_solve")
def row_scaled_solve(
    s1: ArrayLike,
    s2: ArrayLike,
    system: RowScaledSystem,
    b: ArrayLike,
) -> Tensor:
    """Differentiable solve of ``(diag(s1)·M1 + diag(s2)·M2 + C) x = b``.

    The dense counterpart of
    :func:`~repro.autodiff.sparse.sparse_pattern_solve`: the matrix values
    depend on the tape only through the row scales ``s1``, ``s2`` (``(n,)``
    tensors), while ``M1``, ``M2`` and ``C`` are the constant operands of
    ``system`` (a :class:`RowScaledSystem`).  The system assembles and
    LU-factorises the rows that are not unit rows of ``C`` once; every
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
    ``s1 = mask·u``, ``s2 = mask·v``, ``M1 = ∂x``, ``M2 = ∂y``.  A scale
    that is nonzero on a unit row of ``C`` raises ``ValueError``.
    """
    if not isinstance(system, RowScaledSystem):
        raise TypeError(
            f"row_scaled_solve: system must be a RowScaledSystem, got "
            f"{type(system).__name__}"
        )
    ts1, ts2, tb = tensor(s1), tensor(s2), tensor(b)
    s1d, s2d, bd = ts1.data, ts2.data, tb.data
    n = system.n
    if s1d.shape != (n,) or s2d.shape != (n,):
        raise ValueError(
            f"row_scaled_solve: scales must be two ({n},) vectors, got "
            f"{s1d.shape} and {s2d.shape}"
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
        holder[0] = system.factor(s1d, s2d)
        memo[0] = None

    factor()
    x = holder[0].solve(bd)
    scales_on_tape = ts1.needs_tape() or ts2.needs_tape()

    def adjoint(g: np.ndarray) -> np.ndarray:
        # The VJPs of one backward step all receive the same cotangent;
        # compare by value (replay reuses the buffer) so they share W.
        # W is handed out more than once, hence read-only.
        if memo[0] is None or not np.array_equal(memo[0], g):
            w = holder[0].solve_transposed(g)
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
        holder[0].solve(bd, out=o)

    # Opaque to codegen like :func:`solve`: the factors live in the
    # closures, which the generated source calls back into.
    return make_node(
        x,
        [(ts1, scale_vjp(system.M1)), (ts2, scale_vjp(system.M2)), (tb, adjoint)],
        "row_scaled_solve", fwd=fwd, meta=((s1d, s2d, system, bd), None),
    )


class FactorizedSolver:
    """Factorise once, solve many: the adjoint-solve contract in one place.

    A subclass factorises ``A`` in ``__init__`` (setting ``n``,
    ``n_factorizations`` and ``n_solves``) and implements only
    ``_solve(b, transposed)`` for ``b`` of shape ``(n,)`` or ``(n, k)``,
    counting its own solves.  Everything else derives from it:

    - ``__call__`` puts ``x = A⁻¹ b`` on the tape; its VJP is the
      transposed solve ``w = A⁻ᵀ x̄`` with the *same* factors, the discrete
      adjoint that makes DP gradients exact;
    - :meth:`solve_block` solves an ``(N, n)`` row-block on the tape;
    - :meth:`solve_numpy` / :meth:`solve_transposed` are the untaped
      forward and adjoint solves.

    The subclass names its registered primitive in the class statement,
    ``class LUSolver(FactorizedSolver, op="lu_solve")``: batching rules and
    conformance cases are keyed by that name, and it labels the tape node.
    """

    n: int
    n_factorizations: int
    n_solves: int

    def __init_subclass__(cls, op: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)

        def __call__(self, b: ArrayLike) -> Tensor:
            """Solve ``A x = b`` differentiably w.r.t. ``b``."""
            tb = tensor(b)
            bd = tb.data
            x = self._solve(bd, False)

            def vjp_b(g: np.ndarray) -> np.ndarray:
                return self._solve(g, True)

            # Constant matrix: replay re-solves with the cached factors.
            def fwd(o: np.ndarray) -> None:
                o[...] = self._solve(bd, False)

            # Operand metadata only; opaque to codegen (the factors live
            # in the solver object, reached via closure callbacks).
            return make_node(x, [(tb, vjp_b)], op, fwd=fwd, meta=((bd,), None))

        __call__.__qualname__ = f"{cls.__qualname__}.__call__"
        cls.__call__ = primitive(op)(__call__)

    def _solve(self, b: np.ndarray, transposed: bool) -> np.ndarray:
        raise NotImplementedError

    def solve_block(self, b_block: ArrayLike) -> Tensor:
        """Solve an ``(N, n)`` row-block of right-hand sides at once.

        The block is transposed into the ``(n, N)`` column layout, so one
        ``_solve`` against the cached factors serves all N systems, and
        the adjoint pass mirrors it: the transposed solve in the VJP
        receives the cotangent block in the same layout.  This is the
        arrangement the :mod:`~repro.autodiff.batching` solve rule emits.
        Dense LU runs one multi-RHS ``getrs`` (equal to per-vector solves
        to rounding); ``splu`` and Krylov columns are bitwise equal to
        per-vector solves.
        """
        return ops.transpose(self(ops.transpose(b_block)))

    def solve_numpy(self, b: np.ndarray) -> np.ndarray:
        """Plain NumPy solve (no tape)."""
        return self._solve(np.asarray(b, dtype=np.float64), False)

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` (the adjoint system) without taping."""
        return self._solve(np.asarray(b, dtype=np.float64), True)


class LUSolver(FactorizedSolver, op="lu_solve"):
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

    def _solve(self, b: np.ndarray, transposed: bool) -> np.ndarray:
        self.n_solves += 1
        get_registry().counter("linalg.dense.solves").inc()
        x, info = self._getrs(
            self._lu_f, self._piv, b, trans=1 if transposed else 0
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"getrs failed with info={info}")
        return x


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
