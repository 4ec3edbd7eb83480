"""Nodal-space assembly helpers shared by the NumPy and autodiff paths.

A field's discrete system — interior operator rows, boundary rows (unit
for Dirichlet, outward-normal for Neumann, ``normal + β·I`` for Robin)
and its storage — is built by :mod:`repro.rbf.system`, re-exported here.
This module adds the right-hand-side pieces: constant selection matrices
that scatter per-group boundary values (NumPy arrays or tape tensors)
into a field, so the *same* assembly code serves the DAL (NumPy) and DP
(autodiff) solvers.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.cloud.base import Cloud
from repro.rbf.system import (  # re-exported: the PDE layer's assembly names
    FieldBCs,
    assemble_field_system,
    boundary_rows,
    boundary_rows_sparse,
    interior_mask,
    row_selector,
)


def selection_matrix(n: int, idx: np.ndarray) -> np.ndarray:
    """``(n, len(idx))`` matrix scattering per-group values into a field.

    ``S @ values`` places ``values[k]`` at node ``idx[k]`` — a constant
    linear map, hence differentiable scatter for tape tensors.
    """
    idx = np.asarray(idx, dtype=np.int64)
    S = np.zeros((n, idx.size))
    S[idx, np.arange(idx.size)] = 1.0
    return S


def scatter_boundary_values(
    cloud: Cloud,
    values_by_group: Dict[str, Union[np.ndarray, object]],
):
    """Sum of ``S_g @ v_g`` over groups — a boundary RHS vector.

    Values may be NumPy arrays or tape tensors (the inflow control);
    tensors propagate through the constant selection matmul.
    """
    from repro.autodiff import ops

    out = None
    for g, v in values_by_group.items():
        S = selection_matrix(cloud.n, cloud.groups[g])
        term = ops.matmul(S, v)
        out = term if out is None else out + term
    if out is None:
        return np.zeros(cloud.n)
    return out
