"""Tests for the shared discrete-assembly helpers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autodiff import ops
from repro.autodiff.functional import grad
from repro.cloud.square import SquareCloud
from repro.pde.discrete import (
    FieldBCs,
    assemble_field_system,
    boundary_rows,
    boundary_rows_sparse,
    interior_mask,
    scatter_boundary_values,
    selection_matrix,
)
from repro.rbf.kernels import polyharmonic
from repro.rbf.local import build_local_operators
from repro.rbf.operators import build_nodal_operators


@pytest.fixture(scope="module")
def setup():
    cloud = SquareCloud(10)
    nodal = build_nodal_operators(cloud, polyharmonic(3), 1)
    return cloud, nodal


class TestMasksAndSelection:
    def test_interior_mask(self, setup):
        cloud, _ = setup
        m = interior_mask(cloud)
        assert m.sum() == len(cloud.internal)
        np.testing.assert_array_equal(np.flatnonzero(m), cloud.internal)

    def test_selection_matrix_scatters(self):
        S = selection_matrix(5, np.array([1, 3]))
        v = np.array([10.0, 20.0])
        np.testing.assert_array_equal(S @ v, [0, 10, 0, 20, 0])

    def test_selection_matrix_is_partial_isometry(self):
        S = selection_matrix(6, np.array([0, 2, 5]))
        np.testing.assert_array_equal(S.T @ S, np.eye(3))


class TestBoundaryRows:
    def test_dirichlet_rows_are_units(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(kinds={g: "dirichlet" for g in ("top", "bottom", "left", "right")})
        rows = boundary_rows(cloud, nodal, bcs)
        for i in cloud.groups["top"]:
            e = np.zeros(cloud.n)
            e[i] = 1.0
            np.testing.assert_array_equal(rows[i], e)

    def test_neumann_rows_are_normal_rows(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(
            kinds={
                "top": "neumann",
                "bottom": "dirichlet",
                "left": "dirichlet",
                "right": "dirichlet",
            }
        )
        rows = boundary_rows(cloud, nodal, bcs)
        top = cloud.groups["top"]
        np.testing.assert_allclose(rows[top], nodal.normal[top])

    def test_robin_rows_add_beta(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(
            kinds={
                "top": "robin",
                "bottom": "dirichlet",
                "left": "dirichlet",
                "right": "dirichlet",
            },
            robin_beta={"top": 2.0},
        )
        rows = boundary_rows(cloud, nodal, bcs)
        top = cloud.groups["top"]
        expected = nodal.normal[top].copy()
        expected[np.arange(top.size), top] += 2.0
        np.testing.assert_allclose(rows[top], expected)

    def test_robin_array_beta(self, setup):
        cloud, nodal = setup
        top = cloud.groups["top"]
        beta = np.linspace(1.0, 2.0, top.size)
        bcs = FieldBCs(
            kinds={
                "top": "robin",
                "bottom": "dirichlet",
                "left": "dirichlet",
                "right": "dirichlet",
            },
            robin_beta={"top": beta},
        )
        rows = boundary_rows(cloud, nodal, bcs)
        diag = rows[top, top] - nodal.normal[top, top]
        np.testing.assert_allclose(diag, beta)

    def test_missing_group_kind_raises(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(kinds={"top": "dirichlet"})
        with pytest.raises(ValueError, match="needs a BC kind"):
            boundary_rows(cloud, nodal, bcs)

    def test_unknown_kind_rejected(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(
            kinds={
                "top": "periodic",
                "bottom": "dirichlet",
                "left": "dirichlet",
                "right": "dirichlet",
            }
        )
        with pytest.raises(ValueError):
            boundary_rows(cloud, nodal, bcs)

    def test_internal_rows_zero(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(kinds={g: "dirichlet" for g in ("top", "bottom", "left", "right")})
        rows = boundary_rows(cloud, nodal, bcs)
        np.testing.assert_array_equal(rows[cloud.internal], 0.0)


class TestAssembleFieldSystem:
    def test_combines_interior_and_boundary(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(kinds={g: "dirichlet" for g in ("top", "bottom", "left", "right")})
        A = assemble_field_system(cloud, nodal, nodal.lap, bcs)
        np.testing.assert_allclose(A[cloud.internal], nodal.lap[cloud.internal])
        for i in cloud.boundary:
            assert A[i, i] == 1.0

    def test_accepts_tensor_operator(self, setup):
        cloud, nodal = setup
        bcs = FieldBCs(kinds={g: "dirichlet" for g in ("top", "bottom", "left", "right")})
        from repro.autodiff.tensor import Tensor

        A = assemble_field_system(cloud, nodal, Tensor(nodal.lap), bcs)
        assert hasattr(A, "data")
        np.testing.assert_allclose(
            A.data[cloud.internal], nodal.lap[cloud.internal]
        )


class TestScatter:
    def test_scatter_values(self, setup):
        cloud, _ = setup
        top = cloud.groups["top"]
        vals = np.arange(top.size, dtype=float)
        out = scatter_boundary_values(cloud, {"top": vals})
        np.testing.assert_array_equal(out.data[top], vals)
        mask = np.ones(cloud.n, dtype=bool)
        mask[top] = False
        np.testing.assert_array_equal(out.data[mask], 0.0)

    def test_scatter_two_groups(self, setup):
        cloud, _ = setup
        out = scatter_boundary_values(
            cloud,
            {
                "top": np.ones(len(cloud.groups["top"])),
                "bottom": 2 * np.ones(len(cloud.groups["bottom"])),
            },
        )
        assert out.data[cloud.groups["bottom"]].sum() == 2 * len(cloud.groups["bottom"])

    def test_scatter_empty(self, setup):
        cloud, _ = setup
        out = scatter_boundary_values(cloud, {})
        np.testing.assert_array_equal(np.asarray(out), 0.0)

    def test_scatter_differentiable(self, setup):
        cloud, _ = setup
        top = cloud.groups["top"]

        def f(v):
            out = scatter_boundary_values(cloud, {"top": v})
            return ops.sum_(ops.square(out))

        v0 = np.arange(top.size, dtype=float)
        g = grad(f)(v0)
        np.testing.assert_allclose(g, 2 * v0)


STORAGES = ("dense", "sparse")


def _rows(storage, cloud, nodal, bcs):
    """Boundary rows in ``storage``, read back as a dense array."""
    if storage == "dense":
        rows = boundary_rows(cloud, nodal, bcs)
        assert isinstance(rows, np.ndarray)
        return rows
    rows = boundary_rows_sparse(cloud, nodal, bcs)
    assert sp.issparse(rows)
    return rows.toarray()


def _top_kind(kind, **beta):
    kinds = {"top": kind, "bottom": "dirichlet", "left": "dirichlet",
             "right": "dirichlet"}
    return FieldBCs(kinds=kinds, robin_beta=beta)


@pytest.mark.parametrize("storage", STORAGES)
class TestBoundaryRowStorage:
    """One builder writes both storages: each kind's rows, exactly."""

    def test_dirichlet(self, setup, storage):
        cloud, nodal = setup
        rows = _rows(storage, cloud, nodal, _top_kind("dirichlet"))
        np.testing.assert_array_equal(rows[cloud.boundary][:, cloud.boundary],
                                      np.eye(cloud.boundary.size))
        np.testing.assert_array_equal(rows[cloud.internal], 0.0)
        assert np.count_nonzero(rows) == cloud.boundary.size

    def test_neumann(self, setup, storage):
        cloud, nodal = setup
        top = cloud.groups["top"]
        rows = _rows(storage, cloud, nodal, _top_kind("neumann"))
        np.testing.assert_array_equal(rows[top], nodal.normal[top])

    def test_robin_scalar_beta(self, setup, storage):
        cloud, nodal = setup
        top = cloud.groups["top"]
        rows = _rows(storage, cloud, nodal, _top_kind("robin", top=2.0))
        expected = nodal.normal[top].copy()
        expected[np.arange(top.size), top] += 2.0
        np.testing.assert_array_equal(rows[top], expected)

    def test_robin_array_beta(self, setup, storage):
        cloud, nodal = setup
        top = cloud.groups["top"]
        beta = np.linspace(1.0, 2.0, top.size)
        rows = _rows(storage, cloud, nodal, _top_kind("robin", top=beta))
        expected = nodal.normal[top].copy()
        expected[np.arange(top.size), top] += beta
        np.testing.assert_array_equal(rows[top], expected)

    def test_missing_group_raises(self, setup, storage):
        cloud, nodal = setup
        with pytest.raises(ValueError, match="needs a BC kind"):
            _rows(storage, cloud, nodal, FieldBCs(kinds={"top": "dirichlet"}))


def test_storage_follows_the_bundle():
    cloud = SquareCloud(10)
    lops = build_local_operators(cloud)
    bcs = _top_kind("robin", top=0.5)
    rows = boundary_rows(cloud, lops, bcs)
    assert sp.issparse(rows)
    np.testing.assert_array_equal(
        rows.toarray(), boundary_rows_sparse(cloud, lops, bcs).toarray()
    )
    A = assemble_field_system(cloud, lops, lops.lap, bcs)
    assert sp.issparse(A)
    np.testing.assert_array_equal(
        A.toarray(),
        np.diag(interior_mask(cloud)) @ lops.lap.toarray() + rows.toarray(),
    )
