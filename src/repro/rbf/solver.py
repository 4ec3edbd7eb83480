"""Linear PDE solves on a cloud, in nodal space.

The system matrix has one row per node:

- internal nodes → the PDE operator row (from the nodal differentiation
  matrices),
- Dirichlet nodes → an exact unit row (the BC is imposed strongly),
- Neumann nodes → the boundary-normal derivative row,
- Robin nodes → normal row + β · unit row,

and the right-hand side carries the source / boundary data.  For the
optimal-control loops the matrix is *constant across iterations* (the
control only enters the RHS for linear problems), so :class:`RBFSolver`
caches LU factorisations by a caller-supplied key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.cloud.base import BoundaryKind, Cloud
from repro.obs.profile import span as _span
from repro.obs.recorder import current_recorder
from repro.rbf.assembly import LinearOperator2D
from repro.rbf.kernels import Kernel, polyharmonic
from repro.rbf.local import LocalOperators, build_local_operators
from repro.rbf.operators import NodalOperators, build_nodal_operators

BCValue = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary data for one cloud group.

    ``kind`` must match the group's :class:`BoundaryKind` in the cloud
    ordering.  ``value`` may be a constant, a per-node array (group
    ordering), or a callable of the group's ``(n, 2)`` coordinates.
    ``beta`` is the Robin coefficient (ignored otherwise).
    """

    kind: str
    value: BCValue = 0.0
    beta: float = 0.0

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Concrete boundary values at the group's nodes."""
        if callable(self.value):
            out = np.asarray(self.value(points), dtype=np.float64)
        else:
            out = np.broadcast_to(
                np.asarray(self.value, dtype=np.float64), (points.shape[0],)
            ).copy()
        if out.shape != (points.shape[0],):
            raise ValueError(
                f"boundary values have shape {out.shape}, expected ({points.shape[0]},)"
            )
        return out


_KIND_NAME = {
    "dirichlet": BoundaryKind.DIRICHLET,
    "neumann": BoundaryKind.NEUMANN,
    "robin": BoundaryKind.ROBIN,
}


def _dense_condition_estimate(A: np.ndarray, lu) -> Optional[float]:
    """1-norm condition estimate from an existing LU factorisation.

    Uses LAPACK ``gecon`` — O(n²) given the factors, versus O(n³) for a
    fresh SVD — so the telemetry layer can afford it per factorisation.
    Returns ``None`` when the estimate is unavailable (singular matrix,
    LAPACK quirk): telemetry must never turn into a solver failure.
    """
    try:
        (gecon,) = sla.get_lapack_funcs(("gecon",), (lu[0],))
        anorm = float(np.linalg.norm(A, 1))
        rcond, info = gecon(lu[0], anorm)
        if info == 0 and rcond > 0:
            return float(1.0 / rcond)
    except Exception:
        pass
    return None


def _relative_residual(A, x: np.ndarray, b: np.ndarray) -> float:
    """``‖Ax − b‖∞ / max(‖b‖∞, tiny)`` for dense or sparse ``A``."""
    r = A @ x - b
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(r))) / scale


@dataclass
class LinearPDEProblem:
    """A linear PDE ``D u = q`` with per-group boundary conditions."""

    operator: LinearOperator2D
    source: Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]] = 0.0
    bcs: Dict[str, BoundaryCondition] = field(default_factory=dict)

    def source_values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the source term at internal points."""
        if callable(self.source):
            return np.asarray(self.source(points), dtype=np.float64)
        return np.broadcast_to(
            np.asarray(self.source, dtype=np.float64), (points.shape[0],)
        ).copy()


def assemble_problem_rhs(cloud: Cloud, problem: LinearPDEProblem) -> np.ndarray:
    """Right-hand side shared by the dense and sparse solvers.

    Source values on interior rows, boundary data on boundary rows — the
    RHS depends only on the cloud and problem data, never on how the
    operator matrix is stored.
    """
    b = np.zeros(cloud.n)
    interior = cloud.indices_of_kind(BoundaryKind.INTERNAL)
    b[interior] = problem.source_values(cloud.points[interior])
    for group, idx in cloud.groups.items():
        if cloud.kinds[group] is BoundaryKind.INTERNAL:
            continue
        bc = problem.bcs.get(group)
        if bc is None:
            raise ValueError(f"missing boundary condition for group {group!r}")
        b[idx] = bc.evaluate(cloud.points[idx])
    return b


class RBFSolver:
    """Reusable solver bound to one cloud/kernel/degree discretisation.

    Builds the nodal differentiation matrices once and caches system-matrix
    LU factorisations by key, so control loops that re-solve the same PDE
    with different boundary data pay only a triangular-solve per iteration
    (the optimisation the paper's timing table depends on).

    ``n_factorizations``/``n_solves`` count numeric factorisations and
    triangular solves so regression tests can assert
    factorise-once/solve-many behaviour across loop iterations.

    Telemetry: with a trace recorder installed
    (:func:`~repro.obs.recorder.recording`) every factorisation emits a
    ``factorize`` event (with a LAPACK ``gecon`` condition estimate) and
    every solve a ``solve`` event with the relative residual.  Residuals
    require the system matrix, which is only retained for factorisations
    performed *while* a recorder is installed — cached factorisations
    from before report ``residual=None``.  With no recorder the solve
    path is unchanged (no matrix retention, no timestamps).
    """

    solver_name = "rbf-dense-lu"

    def __init__(
        self,
        cloud: Cloud,
        kernel: Optional[Kernel] = None,
        degree: int = 1,
    ) -> None:
        self.cloud = cloud
        self.kernel = kernel or polyharmonic(3)
        self.degree = degree
        self.nodal: NodalOperators = build_nodal_operators(
            cloud, self.kernel, degree
        )
        self._lu_cache: Dict[object, object] = {}
        self.n_factorizations = 0
        self.n_solves = 0

    def _cache_token(self) -> tuple:
        """Discretisation fingerprint mixed into every cache key.

        Keys self-invalidate when the cloud or kernel bound to the solver
        changes (a fresh cloud object, a swapped kernel): the stale
        factorisation can never be returned for the new discretisation.
        """
        return (id(self.cloud), self.kernel.name, self.degree)

    # ------------------------------------------------------------------
    def assemble_system(self, problem: LinearPDEProblem) -> np.ndarray:
        """Build the ``N×N`` nodal system matrix for ``problem``."""
        cloud = self.cloud
        n = cloud.n
        A = np.zeros((n, n))
        interior = cloud.indices_of_kind(BoundaryKind.INTERNAL)
        op_mat = self.nodal.operator_matrix(problem.operator)
        A[interior] = op_mat[interior]

        for group, idx in cloud.groups.items():
            kind = cloud.kinds[group]
            if kind is BoundaryKind.INTERNAL:
                continue
            bc = problem.bcs.get(group)
            if bc is None:
                raise ValueError(f"missing boundary condition for group {group!r}")
            if _KIND_NAME[bc.kind] is not kind:
                raise ValueError(
                    f"group {group!r} is ordered as {kind.name} but got a "
                    f"{bc.kind!r} condition; rebuild the cloud with matching kinds"
                )
            if kind is BoundaryKind.DIRICHLET:
                A[idx, idx] = 1.0
            elif kind is BoundaryKind.NEUMANN:
                A[idx] = self.nodal.normal[idx]
            else:  # Robin
                A[idx] = self.nodal.normal[idx]
                A[idx, idx] += bc.beta
        return A

    def assemble_rhs(self, problem: LinearPDEProblem) -> np.ndarray:
        """Build the right-hand side for ``problem``."""
        return assemble_problem_rhs(self.cloud, problem)

    def _factors(
        self, problem: LinearPDEProblem, cache_key: Optional[str], rec
    ) -> tuple:
        """Fetch-or-build the LU factors (and retained matrix) for ``problem``."""
        key = None if cache_key is None else (cache_key, self._cache_token())
        if key is not None and key in self._lu_cache:
            return self._lu_cache[key]
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span("rbf.assemble", "solver", {"n": self.cloud.n}):
            A = self.assemble_system(problem)
        with _span("rbf.factorize", "solver", {"n": self.cloud.n}):
            lu = sla.lu_factor(A, check_finite=False)
        self.n_factorizations += 1
        if rec is not None:
            rec.solver_event(
                self.solver_name,
                "factorize",
                n=self.cloud.n,
                seconds=time.perf_counter() - t0,
                condition_estimate=_dense_condition_estimate(A, lu),
            )
        # The matrix is only retained for residual reporting; without
        # a recorder the cache stays factors-only, as before.
        A_kept = A if rec is not None else None
        if key is not None:
            self._lu_cache[key] = (lu, A_kept)
        return lu, A_kept

    def solve(
        self, problem: LinearPDEProblem, cache_key: Optional[str] = None
    ) -> np.ndarray:
        """Solve ``problem`` for nodal values.

        When ``cache_key`` is given, the LU factorisation of the system
        matrix is cached under that key and reused on subsequent calls —
        the caller asserts the matrix is unchanged (true for linear
        problems whose control enters only through boundary *values*).
        """
        rec = current_recorder()
        lu, A_kept = self._factors(problem, cache_key, rec)
        b = self.assemble_rhs(problem)
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span("rbf.solve", "solver", {"n": self.cloud.n}):
            x = sla.lu_solve(lu, b, check_finite=False)
        self.n_solves += 1
        if rec is not None:
            rec.solver_event(
                self.solver_name,
                "solve",
                n=self.cloud.n,
                seconds=time.perf_counter() - t0,
                residual=(
                    _relative_residual(A_kept, x, b) if A_kept is not None else None
                ),
            )
        return x

    def solve_block(
        self,
        problem: LinearPDEProblem,
        b_block: np.ndarray,
        cache_key: Optional[str] = None,
    ) -> np.ndarray:
        """Solve against a ``(N_rhs, n)`` block of right-hand sides at once.

        One factorisation (cached under ``cache_key`` exactly as in
        :meth:`solve`) serves every row of ``b_block`` through a single
        multi-RHS ``getrs`` call — the same reuse the served coalesced
        evaluate gets from one ``solve_numpy`` on an ``(n, k)`` block.
        Counts as one entry in ``n_solves``.  Returns the ``(N_rhs, n)`` block
        of solutions (``N_rhs = 0`` is allowed and returns an empty
        block without touching LAPACK).
        """
        b_block = np.asarray(b_block, dtype=np.float64)
        if b_block.ndim != 2 or b_block.shape[1] != self.cloud.n:
            raise ValueError(
                f"b_block must have shape (N_rhs, {self.cloud.n}), "
                f"got {b_block.shape}"
            )
        rec = current_recorder()
        lu, A_kept = self._factors(problem, cache_key, rec)
        if b_block.shape[0] == 0:
            return b_block.copy()
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span(
            "rbf.solve_block", "solver",
            {"n": self.cloud.n, "n_rhs": b_block.shape[0]},
        ):
            x = sla.lu_solve(lu, b_block.T, check_finite=False).T
        self.n_solves += 1
        if rec is not None:
            rec.solver_event(
                self.solver_name,
                "solve",
                n=self.cloud.n,
                seconds=time.perf_counter() - t0,
                residual=(
                    _relative_residual(A_kept, x.T, b_block.T)
                    if A_kept is not None
                    else None
                ),
            )
        return x

    def clear_cache(self) -> None:
        """Drop all cached factorisations."""
        self._lu_cache.clear()


class LocalRBFSolver:
    """Sparse RBF-FD counterpart of :class:`RBFSolver`.

    Assembles its system rows from :class:`~repro.rbf.local.LocalOperators`
    (``k`` nonzeros per row) and caches ``scipy.sparse.linalg.splu``
    factorisations by key.  Interface-compatible with :class:`RBFSolver`
    (``assemble_system``/``assemble_rhs``/``solve``/``clear_cache``), so
    callers switch backend without touching problem definitions.

    Supports the same boundary-condition kinds: Dirichlet (unit rows),
    Neumann (stencil-sparse normal rows) and Robin (``normal + β·I``).

    Telemetry mirrors :class:`RBFSolver`: an installed trace recorder
    gets per-factorisation/per-solve events.  The sparse matrix is
    always kept next to its factors (it is nnz-bounded), so residuals
    are reported even for factorisations cached before the recorder was
    installed; condition estimates are not available for ``splu``
    factors and are reported as ``None``.  On the iterative path the
    :class:`~repro.autodiff.krylov.KrylovSolver` reports instead.

    ``linear_solver="iterative"`` swaps the exact ``splu`` factorisation
    for a matrix-free preconditioned Krylov iteration
    (:class:`~repro.autodiff.krylov.KrylovSolver`, configured via
    ``solver_opts``): the cache then holds one preconditioner per key
    instead of one LU factor, which is what keeps 100k-node systems
    solvable — SuperLU fill-in is the memory ceiling the iterative path
    removes.  Interface and caching semantics are unchanged.
    """

    solver_name = "rbf-sparse-splu"

    def __init__(
        self,
        cloud: Cloud,
        kernel: Optional[Kernel] = None,
        degree: int = 1,
        stencil_size: Optional[int] = None,
        linear_solver: str = "direct",
        solver_opts: Optional[dict] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if linear_solver not in ("direct", "iterative"):
            raise ValueError(
                "linear_solver must be 'direct' or 'iterative', "
                f"got {linear_solver!r}"
            )
        self.cloud = cloud
        self.kernel = kernel or polyharmonic(3)
        self.degree = degree
        self.linear_solver = linear_solver
        self.solver_opts = dict(solver_opts or {})
        self.local: LocalOperators = build_local_operators(
            cloud, self.kernel, degree, stencil_size, chunk_size=chunk_size
        )
        self.stencil_size = self.local.stencil_size
        self._lu_cache: Dict[object, object] = {}
        self.n_factorizations = 0
        self.n_solves = 0
        if linear_solver == "iterative":
            self.solver_name = "rbf-sparse-krylov"

    def _cache_token(self) -> tuple:
        """Discretisation fingerprint mixed into every cache key."""
        return (id(self.cloud), self.kernel.name, self.degree, self.stencil_size)

    # ------------------------------------------------------------------
    def operator_matrix(self, op: LinearOperator2D) -> sp.csr_matrix:
        """Sparse nodal matrix of ``a·Δ + b·∂x + c·∂y + d·I``."""
        n = self.cloud.n

        def diag(c) -> sp.dia_matrix:
            return sp.diags(
                np.broadcast_to(np.asarray(c, dtype=np.float64), (n,))
            )

        out = sp.csr_matrix((n, n))
        if np.any(np.asarray(op.lap) != 0):
            out = out + diag(op.lap) @ self.local.lap
        if np.any(np.asarray(op.dx) != 0):
            out = out + diag(op.dx) @ self.local.dx
        if np.any(np.asarray(op.dy) != 0):
            out = out + diag(op.dy) @ self.local.dy
        if np.any(np.asarray(op.identity) != 0):
            out = out + diag(op.identity)
        return out.tocsr()

    def assemble_system(self, problem: LinearPDEProblem) -> sp.csr_matrix:
        """Build the sparse ``N×N`` nodal system matrix for ``problem``."""
        cloud = self.cloud
        n = cloud.n
        interior = np.zeros(n)
        interior[cloud.indices_of_kind(BoundaryKind.INTERNAL)] = 1.0
        A = sp.diags(interior) @ self.operator_matrix(problem.operator)

        normal = self.local.normal
        for group, idx in cloud.groups.items():
            kind = cloud.kinds[group]
            if kind is BoundaryKind.INTERNAL:
                continue
            bc = problem.bcs.get(group)
            if bc is None:
                raise ValueError(f"missing boundary condition for group {group!r}")
            if _KIND_NAME[bc.kind] is not kind:
                raise ValueError(
                    f"group {group!r} is ordered as {kind.name} but got a "
                    f"{bc.kind!r} condition; rebuild the cloud with matching kinds"
                )
            sel = sp.csr_matrix(
                (np.ones(idx.size), (idx, idx)), shape=(n, n)
            )
            if kind is BoundaryKind.DIRICHLET:
                A = A + sel
            elif kind is BoundaryKind.NEUMANN:
                A = A + sel @ normal
            else:  # Robin
                A = A + sel @ normal + bc.beta * sel
        return A.tocsr()

    def assemble_rhs(self, problem: LinearPDEProblem) -> np.ndarray:
        """Build the right-hand side for ``problem``."""
        return assemble_problem_rhs(self.cloud, problem)

    def _factors(
        self, problem: LinearPDEProblem, cache_key: Optional[str], rec
    ) -> tuple:
        """Fetch-or-build the solver state and matrix for ``problem``.

        Direct path: ``splu`` factors.  Iterative path: a
        :class:`~repro.autodiff.krylov.KrylovSolver` (preconditioner
        built once, cached under the same keys the LU factors would be).
        """
        key = None if cache_key is None else (cache_key, self._cache_token())
        if key is not None and key in self._lu_cache:
            return self._lu_cache[key]
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span("rbf.assemble", "solver", {"n": self.cloud.n}):
            A = self.assemble_system(problem)
        if self.linear_solver == "iterative":
            from repro.autodiff.krylov import KrylovSolver

            # The KrylovSolver emits its own factorize/solve events
            # (with iteration counts), so the generic events below are
            # suppressed for this path.
            fac = KrylovSolver(A, **self.solver_opts)
            self.n_factorizations += 1
            if key is not None:
                self._lu_cache[key] = (fac, A)
            return fac, A
        with _span("rbf.factorize", "solver", {"n": self.cloud.n}):
            lu = spla.splu(sp.csc_matrix(A))
        self.n_factorizations += 1
        if rec is not None:
            rec.solver_event(
                self.solver_name,
                "factorize",
                n=self.cloud.n,
                seconds=time.perf_counter() - t0,
                nnz=int(A.nnz),
            )
        if key is not None:
            self._lu_cache[key] = (lu, A)
        return lu, A

    def _apply(self, fac, b: np.ndarray) -> np.ndarray:
        """One (multi-)RHS application of the cached solver state."""
        if self.linear_solver == "iterative":
            return fac.solve_numpy(b)
        return fac.solve(b)

    def solve(
        self, problem: LinearPDEProblem, cache_key: Optional[str] = None
    ) -> np.ndarray:
        """Sparse solve with per-key caching of the factorisation state."""
        rec = current_recorder()
        fac, A = self._factors(problem, cache_key, rec)
        b = self.assemble_rhs(problem)
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span("rbf.solve", "solver", {"n": self.cloud.n}):
            x = self._apply(fac, b)
        self.n_solves += 1
        if rec is not None and self.linear_solver != "iterative":
            rec.solver_event(
                self.solver_name,
                "solve",
                n=self.cloud.n,
                seconds=time.perf_counter() - t0,
                residual=_relative_residual(A, x, b),
                nnz=int(A.nnz),
            )
        return x

    def solve_block(
        self,
        problem: LinearPDEProblem,
        b_block: np.ndarray,
        cache_key: Optional[str] = None,
    ) -> np.ndarray:
        """Solve against a ``(N_rhs, n)`` block of right-hand sides at once.

        Sparse counterpart of :meth:`RBFSolver.solve_block`: one cached
        ``splu`` factorisation serves the whole block via a single
        multi-column triangular solve, counted as one entry in
        ``n_solves``.  SuperLU's multi-RHS path is bitwise-identical to
        per-column solves for the narrow blocks the batched cost sweeps
        produce (observed up to ~50 columns); very wide
        blocks may take a blocked substitution that perturbs last bits.
        """
        b_block = np.asarray(b_block, dtype=np.float64)
        if b_block.ndim != 2 or b_block.shape[1] != self.cloud.n:
            raise ValueError(
                f"b_block must have shape (N_rhs, {self.cloud.n}), "
                f"got {b_block.shape}"
            )
        rec = current_recorder()
        fac, A = self._factors(problem, cache_key, rec)
        if b_block.shape[0] == 0:
            return b_block.copy()
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span(
            "rbf.solve_block", "solver",
            {"n": self.cloud.n, "n_rhs": b_block.shape[0]},
        ):
            x = self._apply(fac, b_block.T).T
        self.n_solves += 1
        if rec is not None and self.linear_solver != "iterative":
            rec.solver_event(
                self.solver_name,
                "solve",
                n=self.cloud.n,
                seconds=time.perf_counter() - t0,
                residual=_relative_residual(A, x.T, b_block.T),
                nnz=int(A.nnz),
            )
        return x

    def clear_cache(self) -> None:
        """Drop all cached factorisations."""
        self._lu_cache.clear()


def solve_pde(
    cloud: Cloud,
    problem: LinearPDEProblem,
    kernel: Optional[Kernel] = None,
    degree: int = 1,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`RBFSolver`."""
    return RBFSolver(cloud, kernel=kernel, degree=degree).solve(problem)
