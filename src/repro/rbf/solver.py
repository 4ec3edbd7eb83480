"""Linear PDE solves on a cloud, in nodal space.

The system matrix has one row per node — operator rows on internal
nodes, unit / normal / ``normal + β·I`` rows on Dirichlet / Neumann /
Robin nodes — and is assembled by :mod:`repro.rbf.system`, the one
builder every solver and control problem shares.  For the
optimal-control loops the matrix is *constant across iterations* (the
control only enters the RHS for linear problems), so :class:`RBFSolver`
and :class:`LocalRBFSolver` cache factorisations by a caller-supplied key.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.autodiff.linalg import LUSolver
from repro.autodiff.sparse import make_linear_solver
from repro.cloud.base import Cloud
from repro.obs.profile import span as _span
from repro.obs.recorder import current_recorder
from repro.rbf.kernels import Kernel, polyharmonic
from repro.rbf.local import LocalOperators, build_local_operators
from repro.rbf.operators import NodalOperators, build_nodal_operators
from repro.rbf.system import (  # the problem types are re-exported here
    BoundaryCondition,
    LinearPDEProblem,
    assemble_problem_rhs,
    assemble_problem_system,
)


def check_solver_choice(
    backend: str, solver: str, solver_opts: Optional[dict], arg: str = "solver"
) -> None:
    """Reject an unknown backend or solver and a mismatched pair.

    ``"iterative"`` (the matrix-free Krylov backend) needs
    ``backend="local"``, since the point is never materialising a dense
    system; ``solver_opts`` are Krylov options, so the direct solver
    takes none.  ``arg`` names the solver argument in the messages.
    """
    if backend not in ("dense", "local"):
        raise ValueError(f"backend must be 'dense' or 'local', got {backend!r}")
    if solver not in ("direct", "iterative"):
        raise ValueError(
            f"{arg} must be 'direct' or 'iterative', got {solver!r}"
        )
    if solver == "iterative" and backend != "local":
        raise ValueError(
            f"{arg}='iterative' requires backend='local' (the Krylov "
            "backend operates on the sparse RBF-FD system)"
        )
    if solver == "direct" and solver_opts:
        raise TypeError(
            f"solver_opts are only meaningful with {arg}='iterative'; "
            f"got {sorted(solver_opts)}"
        )


def build_operators(
    cloud: Cloud,
    kernel: Kernel,
    degree: int,
    backend: str,
    stencil_size: Optional[int] = None,
) -> Union[NodalOperators, LocalOperators]:
    """The operator bundle of ``backend``: dense global or sparse RBF-FD."""
    if backend == "dense":
        return build_nodal_operators(cloud, kernel, degree)
    return build_local_operators(cloud, kernel, degree, stencil_size)


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


class _CachedSolver:
    """The factor cache shared by :class:`RBFSolver` and :class:`LocalRBFSolver`.

    A subclass builds its operator bundle (``operators``: dense
    :class:`~repro.rbf.operators.NodalOperators` or sparse
    :class:`~repro.rbf.local.LocalOperators`) and names its
    discretisation (``_cache_token``).  This base assembles the system
    from the bundle (:func:`~repro.rbf.system.assemble_problem_system`,
    in the bundle's storage), factorises it through
    :func:`~repro.autodiff.sparse.make_linear_solver` with the
    subclass's ``linear_solver``/``solver_opts`` (dense LU, ``splu`` or
    Krylov, from the matrix storage), caches the solver by key and
    emits the solver events.  ``n_factorizations``/``n_solves`` count
    factorisations and (block) solves, so regression tests can assert
    factorise-once/solve-many behaviour across loop iterations.

    Telemetry: with a trace recorder installed
    (:func:`~repro.obs.recorder.recording`) every factorisation emits a
    ``factorize`` event and every solve a ``solve`` event with the
    relative residual.  Dense factorisations carry a LAPACK ``gecon``
    condition estimate; sparse ones carry ``nnz``.  Residuals need the
    system matrix: a sparse one is always kept (it is nnz-bounded), a
    dense one only for factorisations performed *while* a recorder is
    installed, so cached dense factors from before report
    ``residual=None``.  On the iterative path the
    :class:`~repro.autodiff.krylov.KrylovSolver` reports instead.
    """

    solver_name: str
    operators: Union[NodalOperators, LocalOperators]

    def __init__(
        self,
        cloud: Cloud,
        kernel: Optional[Kernel],
        degree: int,
        linear_solver: str = "direct",
        solver_opts: Optional[dict] = None,
    ) -> None:
        self.cloud = cloud
        self.kernel = kernel or polyharmonic(3)
        self.degree = degree
        self.linear_solver = linear_solver
        self.solver_opts = dict(solver_opts or {})
        self._lu_cache: Dict[object, object] = {}
        self.n_factorizations = 0
        self.n_solves = 0

    def assemble_system(self, problem: LinearPDEProblem):
        """Build the ``N×N`` nodal system matrix for ``problem``."""
        return assemble_problem_system(self.cloud, self.operators, problem)

    def assemble_rhs(self, problem: LinearPDEProblem) -> np.ndarray:
        """Build the right-hand side for ``problem``."""
        return assemble_problem_rhs(self.cloud, problem)

    def _factors(
        self, problem: LinearPDEProblem, cache_key: Optional[str], rec
    ) -> tuple:
        """Fetch-or-build the solver (and retained matrix) for ``problem``."""
        key = None if cache_key is None else (cache_key, self._cache_token())
        if key is not None and key in self._lu_cache:
            return self._lu_cache[key]
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span("rbf.assemble", "solver", {"n": self.cloud.n}):
            A = self.assemble_system(problem)
        with _span("rbf.factorize", "solver", {"n": self.cloud.n}):
            fac = make_linear_solver(A, self.linear_solver, **self.solver_opts)
        self.n_factorizations += 1
        if rec is not None and self._reports:
            rec.solver_event(
                self.solver_name,
                "factorize",
                n=self.cloud.n,
                seconds=time.perf_counter() - t0,
                condition_estimate=(
                    _dense_condition_estimate(A, fac._lu)
                    if isinstance(fac, LUSolver) else None
                ),
                nnz=fac.nnz,
            )
        A_kept = A if rec is not None or sp.issparse(A) else None
        if key is not None:
            self._lu_cache[key] = (fac, A_kept)
        return fac, A_kept

    @property
    def _reports(self) -> bool:
        # A KrylovSolver emits its own events (with iteration counts).
        return self.linear_solver != "iterative"

    def _solve_event(self, rec, fac, A, x, b, t0: float) -> None:
        if rec is None or not self._reports:
            return
        rec.solver_event(
            self.solver_name,
            "solve",
            n=self.cloud.n,
            seconds=time.perf_counter() - t0,
            residual=None if A is None else _relative_residual(A, x, b),
            nnz=fac.nnz,
        )

    def solve(
        self, problem: LinearPDEProblem, cache_key: Optional[str] = None
    ) -> np.ndarray:
        """Solve ``problem`` for nodal values.

        When ``cache_key`` is given, the factorisation of the system
        matrix is cached under that key and reused on subsequent calls —
        the caller asserts the matrix is unchanged (true for linear
        problems whose control enters only through boundary *values*).
        """
        rec = current_recorder()
        fac, A = self._factors(problem, cache_key, rec)
        b = self.assemble_rhs(problem)
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span("rbf.solve", "solver", {"n": self.cloud.n}):
            x = fac.solve_numpy(b)
        self.n_solves += 1
        self._solve_event(rec, fac, A, x, b, t0)
        return x

    def solve_block(
        self,
        problem: LinearPDEProblem,
        b_block: np.ndarray,
        cache_key: Optional[str] = None,
    ) -> np.ndarray:
        """Solve against a ``(N_rhs, n)`` block of right-hand sides at once.

        One factorisation (cached under ``cache_key`` exactly as in
        :meth:`solve`) serves every row of ``b_block`` through one
        ``solve_numpy`` on the ``(n, N_rhs)`` column block.  Dense: one
        multi-RHS ``getrs`` (equal to per-row solves to rounding);
        ``splu``: bitwise equal to per-row solves for the narrow blocks
        the batched cost sweeps produce (observed up to ~50 columns; very wide blocks may
        take a blocked substitution that perturbs last bits); Krylov: one
        iteration per row, bitwise.  Counts as one entry in ``n_solves``.
        Returns the ``(N_rhs, n)`` block of solutions (``N_rhs = 0`` is
        allowed and returns an empty block without factorising).
        """
        b_block = np.asarray(b_block, dtype=np.float64)
        if b_block.ndim != 2 or b_block.shape[1] != self.cloud.n:
            raise ValueError(
                f"b_block must have shape (N_rhs, {self.cloud.n}), "
                f"got {b_block.shape}"
            )
        if b_block.shape[0] == 0:
            return b_block.copy()
        rec = current_recorder()
        fac, A = self._factors(problem, cache_key, rec)
        t0 = time.perf_counter() if rec is not None else 0.0
        with _span(
            "rbf.solve_block", "solver",
            {"n": self.cloud.n, "n_rhs": b_block.shape[0]},
        ):
            x = fac.solve_numpy(b_block.T)
        self.n_solves += 1
        self._solve_event(rec, fac, A, x, b_block.T, t0)
        return x.T

    def clear_cache(self) -> None:
        """Drop all cached factorisations."""
        self._lu_cache.clear()


class RBFSolver(_CachedSolver):
    """Reusable solver bound to one cloud/kernel/degree discretisation.

    Builds the nodal differentiation matrices once and caches system-matrix
    LU factorisations by key, so control loops that re-solve the same PDE
    with different boundary data pay only a triangular-solve per iteration
    (the optimisation the paper's timing table depends on).  Caching,
    counters and telemetry are those of the shared factor cache (a dense
    :class:`~repro.autodiff.linalg.LUSolver` per key).
    """

    solver_name = "rbf-dense-lu"

    def __init__(
        self,
        cloud: Cloud,
        kernel: Optional[Kernel] = None,
        degree: int = 1,
    ) -> None:
        super().__init__(cloud, kernel, degree)
        self.operators = build_nodal_operators(cloud, self.kernel, degree)

    def _cache_token(self) -> tuple:
        """Discretisation fingerprint mixed into every cache key.

        Keys self-invalidate when the cloud or kernel bound to the solver
        changes (a fresh cloud object, a swapped kernel): the stale
        factorisation can never be returned for the new discretisation.
        """
        return (id(self.cloud), self.kernel.name, self.degree)


class LocalRBFSolver(_CachedSolver):
    """Sparse RBF-FD counterpart of :class:`RBFSolver`.

    Assembles its system rows from :class:`~repro.rbf.local.LocalOperators`
    (``k`` nonzeros per row) and caches ``scipy.sparse.linalg.splu``
    factorisations by key.  Interface-compatible with :class:`RBFSolver`
    (``assemble_system``/``assemble_rhs``/``solve``/``clear_cache``), so
    callers switch backend without touching problem definitions: the
    same boundary-condition kinds assemble through the same builder.
    Caching, counters and telemetry are those of the shared factor
    cache, as for :class:`RBFSolver`.

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
        check_solver_choice("local", linear_solver, solver_opts, "linear_solver")
        super().__init__(cloud, kernel, degree, linear_solver, solver_opts)
        self.operators = build_local_operators(
            cloud, self.kernel, degree, stencil_size, chunk_size=chunk_size
        )
        self.stencil_size = self.operators.stencil_size
        if linear_solver == "iterative":
            self.solver_name = "rbf-sparse-krylov"

    def _cache_token(self) -> tuple:
        """Discretisation fingerprint mixed into every cache key."""
        return (id(self.cloud), self.kernel.name, self.degree, self.stencil_size)


def solve_pde(
    cloud: Cloud,
    problem: LinearPDEProblem,
    kernel: Optional[Kernel] = None,
    degree: int = 1,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`RBFSolver`."""
    return RBFSolver(cloud, kernel=kernel, degree=degree).solve(problem)
