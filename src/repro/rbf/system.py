"""The nodal system of a linear PDE on a cloud: one matrix row per node.

Every system in the repository is assembled here, from an operator
bundle (dense :class:`~repro.rbf.operators.NodalOperators` or sparse
:class:`~repro.rbf.local.LocalOperators`) and a boundary-kind
assignment.  Internal nodes take operator rows; Dirichlet, Neumann and
Robin nodes take unit, outward-normal and ``normal + β·I`` rows.  The
storage follows the operands (a sparse operator or bundle gives CSR),
and a tape Tensor interior operator flows through: the masks and rows
are constants.  :class:`FieldBCs` assigns kinds per group, whatever the
cloud's ordering kinds (the NS fields u, v and p differ on one cloud);
a :class:`LinearPDEProblem` must match them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Union

import numpy as np
import scipy.sparse as sp

from repro.cloud.base import BoundaryKind, Cloud
from repro.rbf.assembly import LinearOperator2D

BCValue = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


def _values(spec: BCValue, points: np.ndarray) -> np.ndarray:
    """``spec`` at ``points``: called if callable, else broadcast."""
    if callable(spec):
        return np.asarray(spec(points), dtype=np.float64)
    return np.broadcast_to(
        np.asarray(spec, dtype=np.float64), (points.shape[0],)
    ).copy()


_KIND_NAME = {
    "dirichlet": BoundaryKind.DIRICHLET,
    "neumann": BoundaryKind.NEUMANN,
    "robin": BoundaryKind.ROBIN,
}


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
        out = _values(self.value, points)
        if out.shape != (points.shape[0],):
            raise ValueError(
                f"boundary values have shape {out.shape}, expected ({points.shape[0]},)"
            )
        return out


@dataclass
class LinearPDEProblem:
    """A linear PDE ``D u = q`` with per-group boundary conditions."""

    operator: LinearOperator2D
    source: BCValue = 0.0
    bcs: Dict[str, BoundaryCondition] = field(default_factory=dict)

    def source_values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the source term at internal points."""
        return _values(self.source, points)


@dataclass(frozen=True)
class FieldBCs:
    """Per-group boundary-kind assignment for one scalar field.

    ``kinds`` maps group name → ``"dirichlet" | "neumann" | "robin"``;
    every non-internal group of the cloud must appear.  ``robin_beta``
    holds β per Robin group (scalar or per-node array in group order).
    """

    kinds: Mapping[str, str]
    robin_beta: Mapping[str, Union[float, np.ndarray]] = field(default_factory=dict)

    def validate(self, cloud: Cloud) -> None:
        """Check every boundary group is covered with a known kind."""
        for g, k in cloud.kinds.items():
            if k is BoundaryKind.INTERNAL:
                continue
            got = self.kinds.get(g)
            if got not in _KIND_NAME:
                raise ValueError(
                    f"group {g!r} needs a BC kind in "
                    f"('dirichlet','neumann','robin'), got {got!r}"
                )


def interior_mask(cloud: Cloud) -> np.ndarray:
    """0/1 float vector selecting interior nodes."""
    m = np.zeros(cloud.n)
    m[cloud.internal] = 1.0
    return m


def row_selector(n: int, idx: np.ndarray) -> sp.csr_matrix:
    """Sparse ``(n, n)`` diagonal selector: 1 at ``(i, i)`` for ``i ∈ idx``.

    ``row_selector(n, idx) @ M`` keeps only the ``idx`` rows of ``M`` —
    the sparse replacement for the dense ``rows[idx] = M[idx]`` pattern.
    """
    idx = np.asarray(idx, dtype=np.int64)
    return sp.csr_matrix((np.ones(idx.size), (idx, idx)), shape=(n, n))


def boundary_rows(cloud: Cloud, operators, bcs: FieldBCs):
    """``(N, N)`` matrix holding only the boundary-condition rows.

    Neumann and Robin rows copy the bundle's normal row; Dirichlet rows
    get 1 and Robin rows β on the diagonal.  Written straight into the
    storage of ``operators.normal``: dense for a dense bundle
    (``NodalOperators``), CSR for a sparse one (``LocalOperators``).
    """
    bcs.validate(cloud)
    n = cloud.n
    takes_normal = np.zeros(n, dtype=bool)
    diag = np.zeros(n)
    for g, idx in cloud.groups.items():
        if cloud.kinds[g] is BoundaryKind.INTERNAL:
            continue
        kind = bcs.kinds[g]
        if kind == "dirichlet":
            diag[idx] = 1.0
            continue
        takes_normal[idx] = True
        if kind == "robin":
            diag[idx] = bcs.robin_beta.get(g, 0.0)
    rows_n, d = np.flatnonzero(takes_normal), np.flatnonzero(diag)
    normal = operators.normal
    if sp.issparse(normal):
        return (
            row_selector(n, rows_n) @ normal
            + sp.csr_matrix((diag[d], (d, d)), shape=(n, n))
        ).tocsr()
    rows = np.zeros((n, n))
    rows[rows_n] = normal[rows_n]
    rows[d, d] += diag[d]
    return rows


def boundary_rows_sparse(cloud: Cloud, operators, bcs: FieldBCs) -> sp.csr_matrix:
    """:func:`boundary_rows` as CSR, whatever the bundle's storage."""
    return sp.csr_matrix(boundary_rows(cloud, operators, bcs))


def assemble_field_system(
    cloud: Cloud,
    operators,
    interior_operator,  # (N, N) array, sparse matrix, or Tensor
    bcs: FieldBCs,
):
    """Full system matrix: interior operator rows + boundary rows.

    A ``scipy.sparse`` interior operator (the RBF-FD backend) yields a
    CSR system assembled without densifying; an array or a tape Tensor
    a dense one (the mask is a constant factor).
    """
    if sp.issparse(interior_operator):
        return (
            sp.diags(interior_mask(cloud)) @ interior_operator
            + boundary_rows_sparse(cloud, operators, bcs)
        ).tocsr()
    return interior_mask(cloud)[:, None] * interior_operator + boundary_rows(
        cloud, operators, bcs
    )


def assemble_problem_system(cloud: Cloud, operators, problem: LinearPDEProblem):
    """System matrix of ``problem`` in the storage of ``operators``.

    Every boundary group needs a condition whose kind matches the
    cloud's ordering kind for that group.
    """
    for group in cloud.groups:
        kind = cloud.kinds[group]
        if kind is BoundaryKind.INTERNAL:
            continue
        bc = problem.bcs.get(group)
        if bc is None:
            raise ValueError(f"missing boundary condition for group {group!r}")
        if _KIND_NAME.get(bc.kind) is not kind:
            raise ValueError(
                f"group {group!r} is ordered as {kind.name} but got a "
                f"{bc.kind!r} condition; rebuild the cloud with matching kinds"
            )
    bcs = FieldBCs(
        kinds={g: bc.kind for g, bc in problem.bcs.items()},
        robin_beta={g: bc.beta for g, bc in problem.bcs.items()},
    )
    return assemble_field_system(
        cloud, operators, operators.operator_matrix(problem.operator), bcs
    )


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
