"""Local RBF-FD: sparse differentiation matrices from per-node stencils.

The paper's global collocation builds dense ``N×N`` operators — accurate
but ``O(N³)`` to factor and ``O(N²)`` to store, which is why its future
work aims at "massively parallelising the framework".  RBF-FD (Tolstykh
2000, ref. [44] of the paper) is the standard scalable alternative: each
node gets a small stencil of its ``k`` nearest neighbours; a *local*
polyharmonic interpolation system yields that node's differentiation
weights; the assembled operators are sparse with ``k`` nonzeros per row.

The stencil systems all share one shape ``(k+M)×(k+M)``, so the weight
computation is batched through ``numpy.linalg.solve`` on a ``(c, k+M,
k+M)`` stack — no Python-level loop over nodes.  Assembly is *chunked*:
nodes are processed in blocks sized so the batched temporaries stay
within a fixed memory budget, which keeps peak assembly memory flat in
``N`` (the 100k-node regime of ``bench_scaling_cloud``) and is bitwise
identical to a monolithic pass for any chunking.

This module is an *extension* (the paper's experiments all use the global
solver); the ablation benchmark ``bench_ablation_local_rbf.py`` compares
the two regimes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.autodiff.sparse import make_linear_solver
from repro.cloud.base import Cloud
from repro.cloud.neighbors import nearest_neighbors
from repro.obs.metrics import get_registry
from repro.obs.profile import profiled
from repro.rbf.assembly import LinearOperator2D
from repro.rbf.kernels import Kernel, polyharmonic
from repro.rbf.polynomials import (
    n_poly_terms,
    poly_dx_matrix,
    poly_dy_matrix,
    poly_lap_matrix,
    poly_matrix,
)
from repro.rbf.system import (
    BoundaryCondition,
    LinearPDEProblem,
    assemble_problem_rhs,
    assemble_problem_system,
)


@dataclass
class LocalOperators:
    """Sparse nodal operators from RBF-FD stencils.

    Attributes mirror :class:`repro.rbf.operators.NodalOperators` but the
    matrices are ``scipy.sparse.csr_matrix`` with ``stencil_size``
    nonzeros per row.  ``build_seconds`` records the stencil-assembly
    wall time (the telemetry layer reports it as a ``factorize`` event);
    :attr:`nnz` is the total nonzero count across the three operators.
    """

    cloud: Cloud
    kernel: Kernel
    degree: int
    stencil_size: int
    dx: sp.csr_matrix
    dy: sp.csr_matrix
    lap: sp.csr_matrix
    normal: sp.csr_matrix
    build_seconds: float = 0.0

    @property
    def nnz(self) -> int:
        """Total stored nonzeros of ``∂x``, ``∂y`` and ``Δ``."""
        return int(self.dx.nnz + self.dy.nnz + self.lap.nnz)

    def operator_matrix(self, op: LinearOperator2D) -> sp.csr_matrix:
        """Sparse nodal matrix of ``a·Δ + b·∂x + c·∂y + d·I``."""
        n = self.cloud.n
        out = sp.csr_matrix((n, n))
        for coeff, mat in (
            (op.lap, self.lap), (op.dx, self.dx), (op.dy, self.dy),
            (op.identity, None),
        ):
            if np.any(np.asarray(coeff) != 0):
                diag = sp.diags(
                    np.broadcast_to(np.asarray(coeff, dtype=np.float64), (n,))
                )
                out = out + (diag if mat is None else diag @ mat)
        return out.tocsr()


def default_stencil_size(degree: int) -> int:
    """The usual RBF-FD heuristic: at least twice the polynomial count."""
    return max(2 * n_poly_terms(degree) + 1, 12)


#: Target size of the stencil-assembly temporaries per chunk.  The
#: dominant intermediates are the ``(c, k, k, 2)`` pairwise-difference
#: array and the ``(c, k+m, k+m)`` batched saddle systems; capping their
#: footprint keeps peak assembly memory flat in ``N`` (a 100k-node cloud
#: monolithically materialises ~GBs of them).
_CHUNK_TARGET_BYTES = 1 << 26  # 64 MiB


def _auto_chunk_size(k: int, m: int) -> int:
    """Nodes per chunk so the per-chunk temporaries stay ~64 MiB."""
    per_node = 8 * (3 * k * k * 2 + 4 * (k + m) * (k + m))
    return max(256, _CHUNK_TARGET_BYTES // max(per_node, 1))


def _stencil_weights(
    pts: np.ndarray, kernel: Kernel, degree: int, m: int
) -> dict:
    """RBF-FD weights for one chunk of locally-shifted stencils.

    ``pts`` is the ``(c, k, 2)`` block of stencil coordinates shifted so
    each evaluation node sits at the local origin.  Returns the ``(c, k)``
    weight blocks for ``dx``/``dy``/``lap``.  Every operation is either
    elementwise or a per-matrix LAPACK solve on the ``(c, k+m, k+m)``
    stack, so the results are bitwise independent of how nodes are
    grouped into chunks — the property the chunked assembly relies on
    (and the Hypothesis suite pins).
    """
    c, k, _ = pts.shape

    # Batched local interpolation systems A: (c, k+m, k+m).
    diff = pts[:, :, None, :] - pts[:, None, :, :]  # (c, k, k, 2)
    r = np.sqrt(np.sum(diff * diff, axis=3))
    A = np.zeros((c, k + m, k + m))
    A[:, :k, :k] = kernel.phi(r)
    flat = pts.reshape(-1, 2)
    P = poly_matrix(flat, degree).reshape(c, k, m)
    A[:, :k, k:] = P
    A[:, k:, :k] = P.transpose(0, 2, 1)

    # Right-hand sides: each operator L applied to φ(x_i − ·) and P at the
    # local origin.  With the shift, the evaluation point is 0, so the
    # distance to stencil point j is ‖pts[i, j]‖ and the gradient factor
    # is (0 − pts[i, j]).
    rr = np.sqrt(np.sum(pts * pts, axis=2))  # (c, k)
    w_ratio = kernel.dphi_over_r(rr)
    zero = np.zeros((c, 2))
    rhs = {
        "dx": np.concatenate(
            [w_ratio * (-pts[:, :, 0]), poly_dx_matrix(zero, degree)], axis=1
        ),
        "dy": np.concatenate(
            [w_ratio * (-pts[:, :, 1]), poly_dy_matrix(zero, degree)], axis=1
        ),
        "lap": np.concatenate(
            [kernel.lap(rr), poly_lap_matrix(zero, degree)], axis=1
        ),
    }

    # One batched solve per operator: A w = rhs (γ block dropped).
    return {
        name: np.linalg.solve(A, b[:, :, None])[:, :k, 0]
        for name, b in rhs.items()
    }


@profiled("rbf.build_operators", "solver")
def build_local_operators(
    cloud: Cloud,
    kernel: Optional[Kernel] = None,
    degree: int = 1,
    stencil_size: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> LocalOperators:
    """Assemble sparse ``∂x, ∂y, Δ`` (and boundary-normal) operators.

    For node *i* with stencil ``S_i`` the weights solve the local saddle
    system

    .. math::

        \\begin{bmatrix} \\Phi & P \\\\ P^T & 0 \\end{bmatrix}
        \\begin{bmatrix} w \\\\ \\gamma \\end{bmatrix}
        =
        \\begin{bmatrix} L\\phi(x_i, \\cdot) \\\\ L P(x_i) \\end{bmatrix},

    where Φ and P are evaluated on the (locally shifted) stencil points —
    shifting to the stencil centre keeps the polyharmonic system well
    conditioned.

    ``chunk_size`` bounds how many stencils are assembled at once: the
    per-node saddle systems are independent, so the batch is processed in
    blocks of ``chunk_size`` nodes and the ``(c, k, k, 2)`` / ``(c, k+m,
    k+m)`` temporaries never exceed ~64 MiB regardless of ``N`` — the
    property that lets 100k-node operators assemble without dense-scale
    intermediates.  ``None`` picks that bound automatically; the weights
    are bitwise identical for every chunking (see
    :func:`_stencil_weights`).
    """
    kernel = kernel or polyharmonic(3)
    t_build0 = time.perf_counter()
    n = cloud.n
    m = n_poly_terms(degree)
    k = stencil_size or default_stencil_size(degree)
    if k > n:
        raise ValueError(f"stencil size {k} exceeds cloud size {n}")
    if chunk_size is None:
        chunk_size = _auto_chunk_size(k, m)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    idx, _ = nearest_neighbors(cloud.points, k)  # (n, k), self first

    weights = {name: np.empty((n, k)) for name in ("dx", "dy", "lap")}
    n_chunks = 0
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        # Stencil coordinates shifted to each node (x_i at the origin).
        pts = (
            cloud.points[idx[start:stop]]
            - cloud.points[start:stop, None, :]
        )  # (c, k, 2)
        chunk = _stencil_weights(pts, kernel, degree, m)
        for name, w in chunk.items():
            weights[name][start:stop] = w
        n_chunks += 1
    get_registry().counter("rbf.assembly.chunks").inc(n_chunks)

    rows = np.repeat(np.arange(n), k)
    cols = idx.ravel()

    def assemble(w: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((w.ravel(), (rows, cols)), shape=(n, n))

    dx = assemble(weights["dx"])
    dy = assemble(weights["dy"])
    lap = assemble(weights["lap"])

    # Boundary-normal rows.
    normal = sp.lil_matrix((n, n))
    bidx = cloud.boundary
    if bidx.size:
        nrm = cloud.normals[bidx]
        dn = sp.diags(nrm[:, 0]) @ dx[bidx] + sp.diags(nrm[:, 1]) @ dy[bidx]
        normal[bidx] = dn
    return LocalOperators(
        cloud=cloud,
        kernel=kernel,
        degree=degree,
        stencil_size=k,
        dx=dx,
        dy=dy,
        lap=lap,
        normal=normal.tocsr(),
        build_seconds=time.perf_counter() - t_build0,
    )


def solve_pde_local(
    cloud: Cloud,
    local_ops: LocalOperators,
    operator_coeffs: dict,
    source,
    bc_values: dict,
) -> np.ndarray:
    """Sparse linear PDE solve with RBF-FD operators.

    A thin wrapper over the shared nodal assembly
    (:func:`~repro.rbf.system.assemble_problem_system`) and one ``splu``
    solve.

    Parameters
    ----------
    operator_coeffs:
        Mapping with optional keys ``"lap"``, ``"dx"``, ``"dy"``,
        ``"identity"`` — coefficients of the interior operator.
    source:
        Scalar, per-interior-node array, or callable of interior points.
    bc_values:
        Mapping group name → boundary values (array or callable), one
        entry per boundary group.  Each group takes the condition its
        cloud kind names: unit rows for Dirichlet, normal rows for
        Neumann, normal rows for Robin (β = 0).
    """
    problem = LinearPDEProblem(
        operator=LinearOperator2D(**operator_coeffs),
        source=source,
        bcs={
            g: BoundaryCondition(cloud.kinds[g].name.lower(), values)
            for g, values in bc_values.items()
        },
    )
    A = assemble_problem_system(cloud, local_ops, problem)
    return make_linear_solver(A).solve_numpy(assemble_problem_rhs(cloud, problem))
