"""SCALING — matrix-free Krylov vs direct splu across cloud sizes.

Thin pytest wrapper around :mod:`repro.bench.scaling_cloud`: the sweep
runs at the default tier (``REPRO_FULL=1`` extends it to the
100k-node regime the backend exists for), the table lands in
``benchmarks/artifacts/scaling_cloud.txt`` and the raw rows in
``scaling_cloud.json``.  Gate-style assertions keep the numbers honest:
gradient parity between the two backends where both run, bounded Krylov
iteration counts, and sub-quadratic growth of the iterative path's peak
gradient-evaluation memory.
"""

import json

import numpy as np
import pytest

from repro.bench.configs import is_full_scale
from repro.bench.scaling_cloud import (
    DEFAULT_SIZES,
    FULL_SIZES,
    render,
    run_sweep,
)

SIZES = FULL_SIZES if is_full_scale() else DEFAULT_SIZES

#: Iteration ceiling scales with the sweep tier: ILU quality (at a fixed
#: drop tolerance) degrades slowly with conditioning, so the 100k tier
#: is allowed more iterations than the default tier.
MAX_ITERATIONS = 600 if is_full_scale() else 120


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(SIZES)


def test_scaling_table(sweep, save_artifact, benchmark):
    benchmark(lambda: None)
    save_artifact("scaling_cloud.txt", render(sweep))
    save_artifact("scaling_cloud.json", json.dumps(sweep, indent=1))


def test_iterative_gradients_match_direct(sweep, benchmark):
    """The acceptance criterion: timing numbers mean nothing unless the
    iterative DP gradient is the direct backend's gradient."""
    benchmark(lambda: None)
    checked = [r for r in sweep if "gradcheck" in r]
    assert checked, "no gradcheck rows in the sweep"
    for r in checked:
        assert r["gradcheck"]["grad_max_rel_diff"] < 1e-6, f"N={r['n']}"


def test_iteration_counts_bounded(sweep, benchmark):
    benchmark(lambda: None)
    for r in sweep:
        if r["solver"] == "iterative":
            assert r["iterations_last"] <= MAX_ITERATIONS, (
                f"N={r['n']}: {r['iterations_last']} iterations"
            )
            assert r["n_fallbacks"] == 0, f"N={r['n']} fell back to splu"


def test_iterative_memory_subquadratic(sweep, benchmark):
    """Peak gradient memory of the Krylov path must grow clearly slower
    than N² (the dense ceiling) across the sweep."""
    benchmark(lambda: None)
    rows = [r for r in sweep if r["solver"] == "iterative"]
    ns = np.array([r["n"] for r in rows], dtype=float)
    mem = np.array([max(r["peak_bytes"], 1) for r in rows], dtype=float)
    slope = np.polyfit(np.log(ns), np.log(mem), 1)[0]
    assert slope < 1.7, f"peak-memory log-log slope {slope:.2f} >= 1.7"
