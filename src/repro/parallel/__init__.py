"""Parallel task execution for the embarrassingly parallel fan-outs.

The paper's PINN strategy trains one independent ``(u_θ, c_θ)`` pair per
ω of the line search, and the benchmark harness runs a method × problem
matrix of mutually independent experiments — both were executed one task
at a time.  This package provides the process-pool engine that fans such
work out across workers while preserving three properties the serial
code had for free:

determinism
    Every task derives its seed from ``(root_seed, task_key)`` via
    :func:`~repro.parallel.seeding.derive_seed` — never from a shared RNG
    stream — so results are bitwise independent of scheduling order,
    worker count, and retry history.

fault isolation
    Tasks run on a warm pool of worker processes
    (:mod:`repro.parallel.pool`), forked per run so they inherit the
    task list.  A raising task fails only its task and its worker keeps
    serving; a crashed (even SIGKILLed) or hung worker fails only its
    attempt and is killed and replaced, while the pool and its siblings
    keep running.  Failures are reported as structured
    :class:`~repro.parallel.task.TaskResult` records, optionally retried
    with exponential backoff.

observability
    Each attempt runs with a fresh metrics registry (and span profiler
    when the parent profiles) and ships both back in its reply over the
    worker's pipe; the engine merges them into the parent's registry and
    profiler so artifacts look like one run (spans keep their real
    worker pid/tid).

The same :class:`~repro.parallel.pool.Worker` / ``WarmPool`` pair runs
the control service's warm workers (:mod:`repro.serve`).

Entry points: :class:`~repro.parallel.engine.ParallelEngine` (or the
:func:`~repro.parallel.engine.run_tasks` convenience) plus
:func:`~repro.parallel.engine.resolve_jobs` for the ``--jobs`` /
``$REPRO_JOBS`` convention.
"""

from repro.parallel.engine import ParallelEngine, resolve_jobs, run_tasks
from repro.parallel.seeding import derive_seed, seed_everything
from repro.parallel.task import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    TaskError,
    TaskResult,
)

__all__ = [
    "ParallelEngine",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "Task",
    "TaskError",
    "TaskResult",
    "derive_seed",
    "resolve_jobs",
    "run_tasks",
    "seed_everything",
]
