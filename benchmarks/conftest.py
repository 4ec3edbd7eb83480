"""Shared benchmark fixtures.

Each benchmark regenerates one table or figure of the paper at the active
scale tier (default: seconds-per-benchmark; ``REPRO_FULL=1``: closer to
paper scale), prints the rows/series, and writes them under
``benchmarks/artifacts/``.

The expensive end-to-end runs (one optimisation per method × problem) are
**session-scoped** so that Table 3 and Figures 1/3/4 — which all consume
the same six runs, exactly as in the paper — compute each run once.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.configs import get_scale
from repro.bench.harness import run, spec_for
from repro.control.spec import build_problem

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"


@pytest.fixture(scope="session")
def scale():
    """The active experiment scale tier."""
    return get_scale()


@pytest.fixture(scope="session")
def save_artifact():
    """Write a named text artifact and echo it to the terminal."""
    ARTIFACTS.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = ARTIFACTS / name
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def laplace_problem_bench(scale):
    """The Laplace control problem shared by every Laplace benchmark."""
    return build_problem(spec_for(scale, "laplace", "dp"))


@pytest.fixture(scope="session")
def ns_problem_bench(scale):
    """The channel-flow problem shared by every NS benchmark."""
    return build_problem(spec_for(scale, "ns", "dp"))


@pytest.fixture(scope="session")
def laplace_runs(laplace_problem_bench, scale):
    """One optimisation run per method on Laplace (Table 3 / Fig. 3)."""
    return {
        m.upper(): run(spec_for(scale, "laplace", m),
                       problem=laplace_problem_bench)
        for m in ("dal", "dp", "pinn")
    }


@pytest.fixture(scope="session")
def ns_runs(ns_problem_bench, scale):
    """One optimisation run per method on NS (Table 3 / Figs. 1, 4)."""
    return {
        m.upper(): run(spec_for(scale, "ns", m), problem=ns_problem_bench)
        for m in ("dal", "dp", "pinn")
    }
