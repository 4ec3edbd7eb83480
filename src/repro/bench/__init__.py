"""Benchmark harness regenerating the paper's tables and figures.

- :mod:`repro.bench.configs` — scaled experiment configurations with a
  ``default`` tier (CI-speed) and a ``full`` tier (``REPRO_FULL=1``).
- :mod:`repro.bench.metrics` — wall-time + peak-memory measurement of a
  control run (Table 3 rows).
- :mod:`repro.bench.harness` — end-to-end runs: :func:`spec_for` maps a
  scale tier to a :class:`~repro.control.spec.RunSpec` per method ×
  problem, and :func:`run` runs any spec into a
  :class:`~repro.control.problem.ControlResult`.
- :mod:`repro.bench.tables` — plain-text table renderers matching the
  paper's layout.
"""

from repro.bench.configs import (
    ExperimentScale,
    LaplaceScale,
    NavierStokesScale,
    PinnScale,
    get_scale,
    is_full_scale,
)
from repro.bench.metrics import measure_run
from repro.bench.harness import run, spec_for
from repro.bench.tables import render_table, render_hyperparameter_table, render_performance_table

__all__ = [
    "ExperimentScale",
    "LaplaceScale",
    "NavierStokesScale",
    "PinnScale",
    "get_scale",
    "is_full_scale",
    "measure_run",
    "run",
    "spec_for",
    "render_table",
    "render_hyperparameter_table",
    "render_performance_table",
]
