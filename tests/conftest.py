"""Shared fixtures for the test suite.

Problem fixtures are session-scoped: building nodal operator matrices is
an O(N³) factorisation, and the control problems are immutable once
constructed, so sharing them keeps the suite fast without coupling tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.channel import ChannelCloud
from repro.cloud.square import SquareCloud
from repro.pde.laplace import LaplaceControlProblem
from repro.pde.navier_stokes import ChannelFlowProblem, NSConfig


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden trace baselines in tests/goldens/ from "
        "the current build instead of comparing against them",
    )


@pytest.fixture(scope="session")
def regen_goldens(request):
    """True when the run should rebless golden baselines."""
    return request.config.getoption("--regen-goldens")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def square_cloud_12():
    return SquareCloud(12)


@pytest.fixture(scope="session")
def square_cloud_16():
    return SquareCloud(16)


@pytest.fixture(scope="session")
def channel_cloud_small():
    return ChannelCloud(17, 9)


@pytest.fixture(scope="session")
def laplace_problem():
    """Small Laplace control problem (16×16 grid)."""
    return LaplaceControlProblem(SquareCloud(16))


@pytest.fixture(scope="session")
def laplace_problem_local():
    """Laplace control problem on the sparse (SuperLU) backend, whose
    multi-RHS solves are bitwise-identical per column — the backend the
    batched-vs-serial bit-identity gates run on."""
    return LaplaceControlProblem(SquareCloud(12), backend="local")


@pytest.fixture(scope="session")
def channel_problem():
    """Small channel-flow problem."""
    return ChannelFlowProblem(cloud=ChannelCloud(17, 9), perturbation=0.3)


@pytest.fixture(scope="session")
def ns_config_fast():
    """Cheap NS configuration for solver tests."""
    return NSConfig(reynolds=100.0, refinements=6, pseudo_dt=0.5)


@pytest.fixture(scope="session")
def row_scaled_reference():
    """Unstructured reference for ``linalg.row_scaled_solve``: the same
    full matrix, unit rows included, assembled from dense tape ops and
    solved with ``linalg.solve`` (VJP ``Ā = −W xᵀ`` through every assembly
    op)."""
    from repro.autodiff import linalg, ops

    def solve(s1, s2, system, b):
        A = (
            ops.mul(ops.reshape(s1, (-1, 1)), system.M1)
            + ops.mul(ops.reshape(s2, (-1, 1)), system.M2)
            + system.C
        )
        return linalg.solve(A, b)

    return solve


# ----------------------------------------------------------------------
# Batching-rule conformance table (tests/autodiff/test_batching.py)
# ----------------------------------------------------------------------
# One row per (primitive, shape regime).  Every registered primitive must
# appear at least once — test_batching.py's completeness check compares
# the table's ``name`` column against the registry, so a new primitive
# cannot land without either a table row + rule or a declared fallback.
import zlib
from dataclasses import dataclass, field as _dc_field
from typing import Any, Callable, Optional, Tuple


@dataclass(frozen=True)
class BatchCase:
    """One conformance case for a registered batching primitive.

    ``fn`` is the single-item program (wrapped primitives only);
    ``make_args(rng, n)`` builds the argument list with batched operands
    already stacked along axis 0.  ``in_axes[i] == 0`` marks argument i
    as batched, ``None`` as closed-over; ``diff[i]`` marks it for the
    VJP-parity check.  Tolerances are absolute; 0.0 means bitwise.
    Const-operand cotangents accumulate in a different order than a
    serial loop (one ``np.sum`` vs N in-place adds), hence the separate
    ``const_grad_tol``.
    """

    label: str
    name: str
    fn: Callable
    make_args: Callable
    in_axes: Tuple
    diff: Tuple
    fwd_tol: float = 0.0
    grad_tol: float = 0.0
    const_grad_tol: float = 5e-12
    compileable: bool = True


def _case_rng(label: str):
    return np.random.default_rng(zlib.crc32(label.encode()))


def _build_batching_cases():
    from repro.autodiff import linalg, ops, sparse
    import scipy.sparse as sp

    C = []

    def add(label, name, fn, make_args, in_axes, diff, **kw):
        C.append(BatchCase(label, name, fn, make_args, in_axes, diff, **kw))

    # --- elementwise unary --------------------------------------------
    unary = {
        "neg": (ops.neg, (-3.0, 3.0)),
        "square": (ops.square, (-3.0, 3.0)),
        "sqrt": (ops.sqrt, (0.1, 9.0)),
        "abs": (ops.abs_, (-3.0, 3.0)),
        "exp": (ops.exp, (-2.0, 2.0)),
        "log": (ops.log, (0.1, 9.0)),
        "sin": (ops.sin, (-3.0, 3.0)),
        "cos": (ops.cos, (-3.0, 3.0)),
        "tanh": (ops.tanh, (-3.0, 3.0)),
        "sinh": (ops.sinh, (-2.0, 2.0)),
        "cosh": (ops.cosh, (-2.0, 2.0)),
        "arctan": (ops.arctan, (-3.0, 3.0)),
        "sigmoid": (ops.sigmoid, (-4.0, 4.0)),
    }
    for nm, (f, (lo, hi)) in unary.items():
        add(
            nm, nm, f,
            lambda rng, n, lo=lo, hi=hi: [rng.uniform(lo, hi, (n, 5, 3))],
            (0,), (True,),
        )
    add(
        "clip", "clip",
        lambda a: ops.clip(a, -1.0, 1.0),
        lambda rng, n: [rng.uniform(-3, 3, (n, 7))],
        (0,), (True,),
    )

    # --- elementwise binary (batched×batched and batched×const) -------
    binary = {
        "add": ops.add, "sub": ops.sub, "mul": ops.mul, "div": ops.div,
        "maximum": ops.maximum, "minimum": ops.minimum,
    }
    for nm, f in binary.items():
        add(
            f"{nm}:bb", nm, f,
            lambda rng, n: [rng.uniform(0.5, 3, (n, 4, 3)), rng.uniform(0.5, 3, (n, 4, 3))],
            (0, 0), (True, True),
        )
        add(
            f"{nm}:bc", nm, f,
            lambda rng, n: [rng.uniform(0.5, 3, (n, 4, 3)), rng.uniform(0.5, 3, (4, 3))],
            (0, None), (True, True),
        )
    add(  # rank-mismatched batched operands exercise _align_item_ranks
        "add:rank_pad", "add", ops.add,
        lambda rng, n: [rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 2, 3))],
        (0, 0), (True, True),
    )
    add(
        "power:bc", "power",
        lambda a, b: ops.power(a, b),
        lambda rng, n: [rng.uniform(0.5, 2.0, (n, 6)), 3.0],
        (0, None), (True, False),
    )
    add(
        "power:bb", "power", ops.power,
        lambda rng, n: [rng.uniform(0.5, 2.0, (n, 6)), rng.uniform(1.0, 2.0, (n, 6))],
        (0, 0), (True, True),
    )

    # --- where (const mask, and a traced comparison mask) -------------
    add(
        "where:const_mask", "where",
        lambda a, b: ops.where(np.arange(6) % 2 == 0, a, b),
        lambda rng, n: [rng.uniform(-1, 1, (n, 6)), rng.uniform(-1, 1, (n, 6))],
        (0, 0), (True, True),
    )
    add(
        "where:traced_mask", "where",
        lambda a, b: ops.where(a > 0.0, a, b),
        lambda rng, n: [rng.uniform(-1, 1, (n, 6)), rng.uniform(-1, 1, (n, 6))],
        (0, 0), (True, True),
    )

    # --- reductions ----------------------------------------------------
    for nm, f in (("sum", ops.sum_), ("mean", ops.mean), ("amax", ops.amax)):
        add(
            f"{nm}:all", nm, f,
            lambda rng, n: [rng.uniform(-2, 2, (n, 4, 3))],
            (0,), (True,),
        )
        add(
            f"{nm}:axis0", nm,
            lambda a, f=f: f(a, axis=0),
            lambda rng, n: [rng.uniform(-2, 2, (n, 4, 3))],
            (0,), (True,),
        )
        add(
            f"{nm}:neg_axis_keepdims", nm,
            lambda a, f=f: f(a, axis=-1, keepdims=True),
            lambda rng, n: [rng.uniform(-2, 2, (n, 4, 3))],
            (0,), (True,),
        )
    add(  # ties: the subgradient must pick the same elements per item
        "amax:ties", "amax",
        lambda a: ops.amax(a, axis=1),
        lambda rng, n: [rng.integers(0, 3, (n, 5, 4)).astype(np.float64)],
        (0,), (True,),
    )

    # --- views ---------------------------------------------------------
    add(
        "reshape", "reshape",
        lambda a: ops.reshape(a, (3, 4)),
        lambda rng, n: [rng.uniform(-1, 1, (n, 12))],
        (0,), (True,),
    )
    add(
        "transpose:default", "transpose", ops.transpose,
        lambda rng, n: [rng.uniform(-1, 1, (n, 3, 4))],
        (0,), (True,),
    )
    add(
        "transpose:perm", "transpose",
        lambda a: ops.transpose(a, (1, 2, 0)),
        lambda rng, n: [rng.uniform(-1, 1, (n, 2, 3, 4))],
        (0,), (True,),
    )
    add(
        "getitem:int", "getitem",
        lambda a: ops.getitem(a, 2),
        lambda rng, n: [rng.uniform(-1, 1, (n, 5))],
        (0,), (True,),
    )
    add(
        "getitem:slice", "getitem",
        lambda a: ops.getitem(a, slice(1, 4)),
        lambda rng, n: [rng.uniform(-1, 1, (n, 6, 2))],
        (0,), (True,),
    )
    add(
        "getitem:tuple", "getitem",
        lambda a: ops.getitem(a, (slice(None), 1)),
        lambda rng, n: [rng.uniform(-1, 1, (n, 4, 3))],
        (0,), (True,),
    )
    add(
        "getitem:fancy", "getitem",
        lambda a: ops.getitem(a, np.array([0, 2, 2])),
        lambda rng, n: [rng.uniform(-1, 1, (n, 5))],
        (0,), (True,),
    )

    # --- concatenate / stack -------------------------------------------
    add(
        "concatenate:bb", "concatenate",
        lambda a, b: ops.concatenate([a, b], axis=0),
        lambda rng, n: [rng.uniform(-1, 1, (n, 3, 2)), rng.uniform(-1, 1, (n, 4, 2))],
        (0, 0), (True, True),
    )
    add(
        "concatenate:bc", "concatenate",
        lambda a, b: ops.concatenate([a, b], axis=-1),
        lambda rng, n: [rng.uniform(-1, 1, (n, 3, 2)), rng.uniform(-1, 1, (3, 5))],
        (0, None), (True, True),
    )
    add(
        "stack:bb", "stack",
        lambda a, b: ops.stack([a, b], axis=1),
        lambda rng, n: [rng.uniform(-1, 1, (n, 3, 2)), rng.uniform(-1, 1, (n, 3, 2))],
        (0, 0), (True, True),
    )
    add(
        "stack:bc", "stack",
        lambda a, b: ops.stack([a, b], axis=0),
        lambda rng, n: [rng.uniform(-1, 1, (n, 4)), rng.uniform(-1, 1, (4,))],
        (0, None), (True, True),
    )

    # --- matmul: every (batchedness × item-rank) arrangement -----------
    mm = ops.matmul

    def mk(*specs):
        # spec: ("b"|"c", shape) — batched operands get the leading n.
        def make(rng, n):
            out = []
            for kind, shape in specs:
                full = (n,) + shape if kind == "b" else shape
                out.append(rng.uniform(-1, 1, full))
            return out
        return make

    matmul_cases = [
        ("b1@b1", (("b", (4,)), ("b", (4,)))),
        ("b1@b2", (("b", (4,)), ("b", (4, 3)))),
        ("b2@b1", (("b", (3, 4)), ("b", (4,)))),
        ("b2@b2", (("b", (3, 4)), ("b", (4, 2)))),
        ("b3@b1", (("b", (2, 3, 4)), ("b", (4,)))),
        ("b3@b2", (("b", (2, 3, 4)), ("b", (4, 2)))),
        ("b3@b2_col1", (("b", (2, 5, 4)), ("b", (4, 1)))),  # o=1 kernel switch
        ("b1@c1", (("b", (4,)), ("c", (4,)))),
        ("b1@c2", (("b", (4,)), ("c", (4, 3)))),
        ("b2@c1", (("b", (3, 4)), ("c", (4,)))),
        ("b2@c2", (("b", (3, 4)), ("c", (4, 2)))),
        ("b3@c2", (("b", (2, 3, 4)), ("c", (4, 2)))),
        ("c1@b1", (("c", (4,)), ("b", (4,)))),
        ("c1@b2", (("c", (4,)), ("b", (4, 3)))),
        ("c2@b1", (("c", (3, 4)), ("b", (4,)))),
        ("c2@b2", (("c", (3, 4)), ("b", (4, 2)))),
        ("c3@b1", (("c", (2, 3, 4)), ("b", (4,)))),
        ("c3@b2", (("c", (2, 3, 4)), ("b", (4, 2)))),
        ("c3@b2_col1", (("c", (2, 5, 4)), ("b", (4, 1)))),  # o=1 kernel switch
        ("b3@b3_punt", (("b", (2, 3, 4)), ("b", (2, 4, 2)))),  # loop fallback
    ]
    for label, specs in matmul_cases:
        add(
            f"matmul:{label}", "matmul", mm, mk(*specs),
            tuple(0 if k == "b" else None for k, _ in specs),
            (True, True),
        )

    # --- dense solve family --------------------------------------------
    def spd(rng, m):
        A = rng.standard_normal((m, m))
        return A + m * np.eye(m)

    add(
        "solve:vec", "solve", linalg.solve,
        lambda rng, n: [spd(rng, 6), rng.standard_normal((n, 6))],
        (None, 0), (True, True),
        fwd_tol=1e-10, grad_tol=1e-10,
    )
    add(
        "solve:mat_rhs", "solve", linalg.solve,
        lambda rng, n: [spd(rng, 5), rng.standard_normal((n, 5, 2))],
        (None, 0), (True, True),
        fwd_tol=1e-10, grad_tol=1e-10,
    )
    def row_scaled(batched_scales, unit=(0, 3)):
        # (s1, s2, system, b): A = diag(s1)·M1 + diag(s2)·M2 + C, where
        # the rows ``unit`` of C are unit rows (condensed out of the LU)
        # and the scales vanish on them.
        def make(rng, n, m=6, rhs=()):
            lead = (n,) if batched_scales else ()
            s1 = rng.uniform(0.5, 1.5, lead + (m,))
            s2 = rng.uniform(-1.5, -0.5, lead + (m,))
            M1, M2 = rng.standard_normal((2, m, m))
            C = spd(rng, m)
            idx = list(unit)
            s1[..., idx] = s2[..., idx] = 0.0
            C[idx] = np.eye(m)[idx]
            return [
                s1, s2, linalg.RowScaledSystem(M1, M2, C),
                rng.standard_normal((n, m) + rhs),
            ]
        return make

    # A batched RHS shares the one factorisation (forward solves run per
    # column, so they are bitwise; the adjoint is one block getrs, not
    # bitwise against per-item solves).  Batched scales mean batched
    # matrices and punt to the loop fallback.
    rs_diff = (True, True, False, True)
    add(
        "row_scaled_solve:vec", "row_scaled_solve", linalg.row_scaled_solve,
        row_scaled(False), (None, None, None, 0), rs_diff, grad_tol=1e-10,
    )
    add(
        "row_scaled_solve:mat_rhs", "row_scaled_solve", linalg.row_scaled_solve,
        lambda rng, n: row_scaled(False)(rng, n, rhs=(2,)),
        (None, None, None, 0), rs_diff, grad_tol=1e-10,
    )
    add(  # no unit rows: the full factorisation
        "row_scaled_solve:no_unit_rows", "row_scaled_solve",
        linalg.row_scaled_solve, row_scaled(False, unit=()),
        (None, None, None, 0), rs_diff, grad_tol=1e-10,
    )
    add(
        "row_scaled_solve:batched_scales", "row_scaled_solve",
        linalg.row_scaled_solve, row_scaled(True),
        (0, 0, None, 0), rs_diff,
    )
    add(  # lstsq differentiates only b (documented restriction)
        "lstsq", "lstsq", linalg.lstsq,
        lambda rng, n: [rng.standard_normal((8, 4)), rng.standard_normal((n, 8))],
        (None, 0), (False, True),
        fwd_tol=1e-9, grad_tol=1e-9,
    )
    add(
        "lu_solve", "lu_solve",
        lambda solver, b: solver(b),
        lambda rng, n: [linalg.LUSolver(spd(rng, 6)), rng.standard_normal((n, 6))],
        (None, 0), (False, True),
        fwd_tol=1e-10, grad_tol=1e-10, compileable=False,
    )

    # --- sparse solve family (bitwise: SuperLU multi-RHS == per-col) ---
    def band(rng, m):
        d0 = rng.uniform(3.0, 4.0, m)
        d1 = rng.uniform(-1.0, 1.0, m - 1)
        return sp.diags([d1, d0, d1], [-1, 0, 1]).tocsr()

    add(
        "sparse_solve", "sparse_solve", sparse.sparse_solve,
        lambda rng, n: [band(rng, 7), rng.standard_normal((n, 7))],
        (None, 0), (False, True), compileable=False,
    )
    add(
        "sparse_lu_solve", "sparse_lu_solve",
        lambda solver, b: solver(b),
        lambda rng, n: [sparse.SparseLUSolver(band(rng, 7)), rng.standard_normal((n, 7))],
        (None, 0), (False, True), compileable=False,
    )
    add(
        "sparse_matvec", "sparse_matvec", sparse.sparse_matvec,
        lambda rng, n: [band(rng, 7), rng.standard_normal((n, 7))],
        (None, 0), (False, True), compileable=False,
    )

    def pattern_args(rng, n):
        m = 6
        A = band(rng, m).tocoo()
        return [
            A.row.astype(np.int64), A.col.astype(np.int64), (m, m),
            A.data.copy(), rng.standard_normal((n, m)),
        ]

    add(
        "sparse_pattern_solve", "sparse_pattern_solve",
        lambda rows, cols, shape, data, b:
            sparse.sparse_pattern_solve(rows, cols, shape, data, b),
        pattern_args,
        (None, None, None, None, 0), (False, False, False, True, True),
        compileable=False,
    )

    # --- iterative solve family (per-column == per-vector bitwise) -----
    from repro.autodiff import krylov

    add(
        "krylov_solve", "krylov_solve",
        lambda solver, b: solver(b),
        lambda rng, n: [
            krylov.KrylovSolver(band(rng, 7)), rng.standard_normal((n, 7)),
        ],
        (None, 0), (False, True), compileable=False,
    )
    add(
        "krylov_pattern_solve", "krylov_pattern_solve",
        lambda rows, cols, shape, data, b:
            krylov.krylov_pattern_solve(rows, cols, shape, data, b),
        pattern_args,
        (None, None, None, None, 0), (False, False, False, True, True),
        compileable=False,
    )
    return C


BATCHING_CASES = _build_batching_cases()


def pytest_generate_tests(metafunc):
    if "batch_case" in metafunc.fixturenames:
        metafunc.parametrize(
            "batch_case", BATCHING_CASES, ids=[c.label for c in BATCHING_CASES]
        )


@pytest.fixture(scope="session")
def batching_rule_table():
    """The full conformance table (for completeness/coverage checks)."""
    return BATCHING_CASES
