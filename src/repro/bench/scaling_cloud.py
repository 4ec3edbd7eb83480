"""Cloud-size scaling sweep for the matrix-free Krylov backend.

The paper's future-work line — "improve the memory and computational
efficiency of DP by massively parallelising the framework" — runs into
one wall first: the linear solver.  Dense LU is ``O(N³)``/``O(N²)``;
even sparse SuperLU fill-in becomes the memory ceiling near ``N = 10⁵``.
This sweep measures the third tier (preconditioned, matrix-free Krylov
with an implicit-adjoint VJP, :mod:`repro.autodiff.krylov`) against the
direct sparse path on the Laplace DP control problem from ``N ≈ 10³``
up to ``N ≈ 10⁵`` nodes:

- **wall time** for operator assembly, solver setup (LU factorisation
  vs preconditioner build) and one DP ``value_and_grad`` (forward +
  adjoint solve through the tape);
- **peak traced memory** of the gradient evaluation;
- **Krylov iteration counts** (forward and adjoint solves), straight
  from the solver's own counters — the same numbers the obs layer
  records per solve;
- **gradient parity**: below ``--gradcheck-max`` nodes the iterative
  DP gradient is checked against the direct (``splu``) backend's — the
  acceptance criterion that makes the timing numbers trustworthy.

Rows run as :class:`repro.parallel.Task`s, so ``--jobs K`` measures K
sizes concurrently (per-row ``tracemalloc`` peaks stay per-process and
therefore honest).

Usage::

    python -m repro.bench.scaling_cloud [--sizes N ...] [--full]
        [--jobs K] [--out-dir DIR]

``--full`` extends the sweep to the 100k-node tier (minutes); the
default sizes run in seconds.  The exit status is 1 when a gradcheck
exceeds rel 1e-6 or a Krylov solve falls back to ``splu``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

#: Default sweep: large enough to show the scaling trend, small
#: enough for a CI gate.
DEFAULT_SIZES = (1024, 2025, 4096)

#: Full sweep: the 100k-node regime the backend exists for.
FULL_SIZES = (1024, 4096, 16384, 65536, 102400)

#: Direct-backend rows are skipped above this size unless overridden —
#: sparse-LU fill-in is exactly the cost the sweep demonstrates, and the
#: comparison column only needs the overlap region.
DEFAULT_DIRECT_MAX = 20_000

#: Sizes at or below this get the iterative-vs-direct gradient check.
DEFAULT_GRADCHECK_MAX = 5_000


def run_row(
    n_target: int,
    solver: str,
    gradcheck: bool = False,
    solver_opts: "dict | None" = None,
) -> dict:
    """One sweep row: Laplace DP on a ``~n_target``-node cloud.

    Module-level (picklable) so it can run as a parallel-engine task.
    Returns a JSON-ready record; gradient-parity info is included when
    ``gradcheck`` is set (requires ``solver == "iterative"``).
    """
    from repro.bench.metrics import measure_run
    from repro.cloud.square import SquareCloud
    from repro.control.dp import LaplaceDP
    from repro.pde.laplace import LaplaceControlProblem

    nx = max(4, int(round(math.sqrt(n_target))))
    opts = dict(solver_opts or {})
    if solver == "iterative" and "tol" not in opts and n_target > DEFAULT_GRADCHECK_MAX:
        # BiCGSTAB's recurrence residual drifts from the true residual
        # by O(cond·eps); near 100k nodes the achievable floor sits
        # above 1e-10 and the true-residual safety net would (rightly)
        # refuse to report convergence.  Timing-only rows don't need
        # gradcheck-grade accuracy, so loosen the target.
        opts["tol"] = 1e-8

    t0 = time.perf_counter()
    cloud = SquareCloud(nx)
    problem = LaplaceControlProblem(
        cloud, backend="local", solver=solver,
        solver_opts=opts if solver == "iterative" else None,
    )
    assemble_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    # One gradient per row, on the eager tape: a compiled oracle's first
    # call would time its trace and build, and replay each solve to
    # validate the program.
    oracle = LaplaceDP(problem, compile=False)
    setup_s = time.perf_counter() - t0

    c = problem.optimal_control() * 0.5
    (cost, grad), grad_s, peak_bytes = measure_run(
        lambda: oracle.value_and_grad(c)
    )

    row = {
        "n": int(cloud.n),
        "nx": int(nx),
        "solver": solver,
        "assemble_s": float(assemble_s),
        "setup_s": float(setup_s),
        "grad_s": float(grad_s),
        "peak_bytes": int(peak_bytes),
        "cost": float(cost),
        "grad_norm": float(np.linalg.norm(grad)),
        "system_nnz": int(problem.system.nnz),
    }
    ks = oracle.solver
    if solver == "iterative":
        row["iterations_last"] = int(ks.last_iterations or 0)
        row["n_solves"] = int(ks.n_solves)
        row["n_fallbacks"] = int(ks.n_fallbacks)
    if gradcheck:
        direct = LaplaceDP(
            LaplaceControlProblem(cloud, backend="local"), compile=False
        )
        cost_d, grad_d = direct.value_and_grad(c)
        scale = max(float(np.max(np.abs(grad_d))), 1e-300)
        row["gradcheck"] = {
            "cost_abs_diff": float(abs(cost - cost_d)),
            "grad_max_abs_diff": float(np.max(np.abs(grad - grad_d))),
            "grad_max_rel_diff": float(np.max(np.abs(grad - grad_d)) / scale),
        }
    return row


def run_sweep(
    sizes,
    jobs: "int | None" = None,
    direct_max: int = DEFAULT_DIRECT_MAX,
    gradcheck_max: int = DEFAULT_GRADCHECK_MAX,
    solver_opts: "dict | None" = None,
) -> "list[dict]":
    """Run all rows (iterative everywhere, direct up to ``direct_max``).

    ``jobs=None`` resolves to ``$REPRO_JOBS``, else 1.
    """
    from repro.parallel import Task, run_tasks

    tasks = []
    for n in sizes:
        tasks.append(Task(
            key=f"iterative-{n}",
            fn=run_row,
            args=(n, "iterative", n <= gradcheck_max, solver_opts),
        ))
        if n <= direct_max:
            tasks.append(Task(key=f"direct-{n}", fn=run_row, args=(n, "direct")))
    results = run_tasks(tasks, jobs=jobs)
    rows = []
    for res in results:
        rows.append(res.unwrap())  # a failed row fails the sweep loudly
    return sorted(rows, key=lambda r: (r["n"], r["solver"]))


def render(rows) -> str:
    from repro.bench.tables import render_table

    table = []
    for r in rows:
        gc = r.get("gradcheck")
        table.append([
            str(r["n"]),
            r["solver"],
            f"{r['assemble_s']:.2f}",
            f"{r['setup_s']:.2f}",
            f"{r['grad_s']:.2f}",
            f"{r['peak_bytes'] / 2**20:.1f}",
            str(r.get("iterations_last", "-")),
            f"{gc['grad_max_rel_diff']:.1e}" if gc else "-",
        ])
    return render_table(
        ["N", "solver", "assemble s", "setup s", "grad s", "peak MiB",
         "iters", "grad rel diff"],
        table,
        title="SCALING: Laplace DP value_and_grad, direct splu vs "
        "matrix-free Krylov (local RBF-FD backend)",
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=None,
                    help="target node counts (default: %s)"
                    % " ".join(map(str, DEFAULT_SIZES)))
    ap.add_argument("--full", action="store_true",
                    help="run the full sweep up to ~100k nodes")
    ap.add_argument("--jobs", type=int, default=None,
                    help="concurrent rows (default: $REPRO_JOBS or 1)")
    ap.add_argument("--direct-max", type=int, default=DEFAULT_DIRECT_MAX,
                    help="skip direct-backend rows above this size")
    ap.add_argument("--gradcheck-max", type=int,
                    default=DEFAULT_GRADCHECK_MAX,
                    help="check iterative vs direct gradients up to this size")
    ap.add_argument("--tol", type=float, default=None,
                    help="Krylov convergence tolerance override")
    ap.add_argument("--out-dir", default=None, metavar="DIR",
                    help="write scaling_cloud.json here")
    args = ap.parse_args(argv)

    sizes = args.sizes or (FULL_SIZES if args.full else DEFAULT_SIZES)
    solver_opts = {"tol": args.tol} if args.tol is not None else None
    rows = run_sweep(
        sizes,
        jobs=args.jobs,
        direct_max=args.direct_max,
        gradcheck_max=args.gradcheck_max,
        solver_opts=solver_opts,
    )
    print(render(rows))

    failures = []
    for r in rows:
        gc = r.get("gradcheck")
        if gc and gc["grad_max_rel_diff"] > 1e-6:
            failures.append(
                f"N={r['n']}: iterative DP gradient differs from direct "
                f"by rel {gc['grad_max_rel_diff']:.3e}"
            )
        if r.get("n_fallbacks"):
            failures.append(
                f"N={r['n']}: Krylov fell back to direct factorisation "
                f"{r['n_fallbacks']} time(s)"
            )

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        artifact = {
            "kind": "repro.scaling.cloud",
            "sizes": [int(s) for s in sizes],
            "direct_max": args.direct_max,
            "gradcheck_max": args.gradcheck_max,
            "rows": rows,
            "failures": failures,
        }
        path = os.path.join(args.out_dir, "scaling_cloud.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(artifact, f, indent=1)
        print(f"artifact -> {path}")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
