"""The warm serving worker: one process, long-lived caches, typed replies.

Each worker owns three layers of state that persist *across requests* —
this is the whole point of serving warm instead of forking per request:

- **problems** keyed by ``(family, nx, ny)``: assembled collocation
  systems (and, for Navier–Stokes, the factorised pressure Poisson
  solver), built from the request's :func:`request_spec`;
- **solvers** keyed the same way: one LU/splu factorisation per system,
  shared by every oracle and every coalesced evaluation that touches
  that system — request N pays ``n_factorizations == 1`` and rides the
  multi-solve path;
- **oracles** keyed by ``(family, method, nx, ny, target-digest)``: the
  Laplace DP oracle runs on the compiled tier, so its program is traced
  and compiled on the first request and run by every later request with
  the same shape and target (the compiled program bakes the target
  constant in, hence the target digest in the key).

The worker speaks a tiny framed protocol over a ``multiprocessing``
pipe: one job dict in, exactly one reply dict out.  Replies are always
``{"ok": True, "result": ..., "obs": ...}`` or ``{"ok": False, "error":
{"type": ..., "message": ...}}`` — the worker never lets an exception
escape to the pipe.  ``obs`` piggybacks the worker's cumulative cache
counters on every reply so the service can publish cross-request hit
rates without a separate polling round-trip.
"""

from __future__ import annotations

import copy
import os
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.hooks import cache_counts

__all__ = [
    "WorkerState",
    "execute_job",
    "request_spec",
    "serve_worker_main",
]


class WorkerState:
    """Caches that live for the worker's lifetime."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self.problems: Dict[Tuple, Any] = {}
        self.solvers: Dict[Tuple, Any] = {}
        self.oracles: Dict[Tuple, Any] = {}

    # -- problem / solver / oracle caches ------------------------------
    def problem(self, request):
        """The assembled system for a request's ``(family, nx, ny)``."""
        key = (request.family, request.nx, request.ny)
        prob = self.problems.get(key)
        if prob is None:
            from repro.control.spec import build_problem

            prob = build_problem(request_spec(request))
            self.problems[key] = prob
        return prob

    def solver(self, request):
        """The shared factorisation for one assembled system (laplace)."""
        key = (request.family, request.nx, request.ny)
        solver = self.solvers.get(key)
        if solver is None:
            solver = self.solvers[key] = self.problem(request).factorize()
        return solver

    def oracle(self, request, target_digest: str):
        key = (request.family, request.method, request.nx, request.ny,
               target_digest)
        oracle = self.oracles.get(key)
        if oracle is None:
            from repro.control.spec import build_oracle

            oracle = build_oracle(request_spec(request),
                                  self._problem_for(request))
            if request.family == "laplace":
                # All Laplace oracles (and the coalesced evaluate path)
                # share ONE factorisation per system — a per-request
                # target only changes the post-solve mismatch, never
                # the matrix.
                oracle.solver = self.solver(request)
            self.oracles[key] = oracle
        return oracle

    def _problem_for(self, request):
        prob = self.problem(request)
        if request.target is None:
            return prob
        target = np.asarray(request.target, dtype=np.float64)
        if target.shape != prob.target.shape:
            raise _Reject(
                f"'target' must have length {prob.target.shape[0]} for "
                f"nx={request.nx}, got {target.shape[0]}"
            )
        # Shallow copy: the assembled system, quadrature and control
        # grid are shared; only the target profile differs.
        prob = copy.copy(prob)
        prob.target = target
        return prob

    # -- cumulative cache counters (piggybacked on every reply) --------
    def cache_obs(self) -> Dict[str, Dict[str, int]]:
        solvers = [*self.solvers.values(), *(
            getattr(p, "pressure_solver", None) for p in self.problems.values()
        )]
        vgs = [getattr(o, "_vg", None) for o in self.oracles.values()]
        return {"lu-cache": _total(solvers), "compiled-replay": _total(vgs)}


def _total(owners) -> Dict[str, int]:
    """Summed cache counts of ``owners`` under the one hit/miss rule."""
    counts = [c for c in map(cache_counts, owners) if c is not None]
    return {"hits": sum(h for h, _ in counts),
            "misses": sum(m for _, m in counts)}


class _Reject(ValueError):
    """Raised by job execution for a request that is invalid at worker
    resolution (profile-length mismatch etc.) — maps to HTTP 400."""


# ----------------------------------------------------------------------
# The served run
# ----------------------------------------------------------------------
def request_spec(request):
    """The :class:`~repro.control.spec.RunSpec` a served request runs.

    Every served setting that the request does not carry is fixed here.
    Where these differ from the bench's ``spec_for`` (DESIGN §16):

    - only Laplace DP runs with ``compile=True`` (trace-once
      compilation): the first request traces and compiles, every
      subsequent same-shape request runs the compiled program — the
      cross-request program-cache contract.  NS DP runs eager; the
      bench runs every DP oracle compiled;
    - every Navier–Stokes method uses the DP paper value of 10
      pseudo-time refinements (the bench's DAL uses 3), bounded so one
      request cannot run unbounded;
    - a PINN solve trains step 1 of the ω line search only, at the
      paper's Laplace ω* = 0.1, with 200 interior and 24 boundary
      points, on the eager tier.
    """
    from repro.control.spec import RunSpec

    return RunSpec(
        family=request.family,
        method=request.method,
        nx=request.nx,
        ny=request.ny,
        compile=(request.family, request.method) == ("laplace", "dp"),
        iterations=request.iterations,
        lr=request.lr,
        refinements=10,
        hidden=(30, 30, 30),
        omegas=(0.1,),
        n_interior=200,
        n_boundary=24,
    )


# ----------------------------------------------------------------------
# Job execution
# ----------------------------------------------------------------------
def _solve(state: WorkerState, request, digest: str) -> Dict[str, Any]:
    if request.method == "pinn":
        return _solve_pinn(state, request, digest)
    oracle = state.oracle(request, _target_digest(request))
    from repro.control.loop import optimize

    best_c, hist = optimize(oracle, request.iterations, request.lr)
    cost = float(hist.best_cost)
    return {
        "kind": "solve",
        "final_cost": cost,
        "control": [float(v) for v in best_c],
        "iterations": int(request.iterations),
        "converged": (None if request.tolerance is None
                      else bool(cost <= request.tolerance)),
    }


def _solve_pinn(state: WorkerState, request, digest: str) -> Dict[str, Any]:
    from repro.control.spec import build_oracle
    from repro.parallel.seeding import derive_seed

    spec = request_spec(request)
    pinn = build_oracle(spec, state._problem_for(request))
    (omega,) = spec.omegas
    run = pinn.train_pair(omega, seed=derive_seed(request.seed, digest))
    c = pinn.control_values(run.params_c)
    # Price the PINN control under the reference (RBF) physics, through
    # the same shared factorisation every other request uses.
    dp_eval = state.oracle(
        _replace_method(request, "dp"), _target_digest(request)
    )
    cost = float(dp_eval.value(c))
    return {
        "kind": "solve",
        "final_cost": cost,
        "control": [float(v) for v in c],
        "iterations": int(request.iterations),
        "converged": (None if request.tolerance is None
                      else bool(cost <= request.tolerance)),
    }


def _replace_method(request, method: str):
    from dataclasses import replace

    return replace(request, method=method)


def _target_digest(request) -> str:
    from repro.obs.fingerprint import config_digest

    return config_digest(
        None if request.target is None else list(request.target)
    )


def _evaluate_batch(state: WorkerState, requests: List) -> List[Dict[str, Any]]:
    """Price a batch of controls; Laplace batches share ONE multi-RHS solve.

    Every request in the batch shares a coalesce key — same family and
    system shape — which is what makes stacking sound.  For Laplace the
    controls' right-hand sides become the columns of one ``(n, k)`` block
    (:meth:`~repro.pde.laplace.LaplaceControlProblem.rhs`) pushed through
    a single factorised ``getrs``/``splu`` call, and
    :meth:`~repro.pde.laplace.LaplaceControlProblem.cost_from_state`
    prices the state block, each column against its request's target.
    Navier–Stokes costs are nonlinear in the control, so they run
    sequentially (still one worker round-trip).
    """
    if not requests:
        return []
    if requests[0].family != "laplace":
        out = []
        cfg = request_spec(requests[0]).ns_config
        prob = state.problem(requests[0])
        for req in requests:
            c = np.asarray(req.control, dtype=np.float64)
            if c.shape[0] != prob.inflow_y.shape[0]:
                out.append(_reject_payload(
                    f"'control' must have length {prob.inflow_y.shape[0]} "
                    f"for nx={req.nx}, ny={req.ny}, got {c.shape[0]}"
                ))
                continue
            st = prob.solve(c, cfg)
            cost = float(prob.cost(st.u, st.v))
            out.append(_evaluate_payload(cost, req))
        return out

    prob = state.problem(requests[0])
    solver = state.solver(requests[0])
    n_control = prob.n_control
    controls: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    slots: List[int] = []
    out: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    for i, req in enumerate(requests):
        c = np.asarray(req.control, dtype=np.float64)
        if c.shape[0] != n_control:
            out[i] = _reject_payload(
                f"'control' must have length {n_control} for nx={req.nx}, "
                f"got {c.shape[0]}"
            )
            continue
        target = prob.target
        if req.target is not None:
            t = np.asarray(req.target, dtype=np.float64)
            if t.shape != prob.target.shape:
                out[i] = _reject_payload(
                    f"'target' must have length {prob.target.shape[0]} for "
                    f"nx={req.nx}, got {t.shape[0]}"
                )
                continue
            target = t
        controls.append(c)
        targets.append(target)
        slots.append(i)
    if controls:
        # The coalesced solve: k right-hand sides, one factorisation.
        u_block = solver.solve_numpy(prob.rhs(np.stack(controls)))
        costs = prob.cost_from_state(u_block, np.stack(targets, axis=1))
        for i, cost in zip(slots, costs):
            out[i] = _evaluate_payload(float(cost), requests[i])
    return out  # type: ignore[return-value]


def _evaluate_payload(cost: float, request) -> Dict[str, Any]:
    return {
        "kind": "evaluate",
        "cost": cost,
        "converged": (None if request.tolerance is None
                      else bool(cost <= request.tolerance)),
    }


def _reject_payload(message: str) -> Dict[str, Any]:
    return {"error": {"type": "RequestError", "message": message}}


def execute_job(state: WorkerState, job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job against the worker caches; never raises."""
    try:
        op = job.get("op")
        if op == "solve":
            result = _solve(state, job["request"], job.get("digest", ""))
            return {"ok": True, "result": result, "obs": state.cache_obs()}
        if op == "evaluate":
            results = _evaluate_batch(state, job["requests"])
            return {"ok": True, "results": results, "obs": state.cache_obs()}
        if op == "ping":
            return {"ok": True, "result": {"pid": os.getpid()},
                    "obs": state.cache_obs()}
        return {"ok": False, "error": {
            "type": "RequestError", "message": f"unknown op {op!r}",
        }}
    except _Reject as exc:
        return {"ok": False, "error": {
            "type": "RequestError", "message": str(exc),
        }}
    except MemoryError:
        return {"ok": False, "error": {
            "type": "InternalError", "message": "worker out of memory",
        }}
    except Exception as exc:  # noqa: BLE001 — typed 500, never a dead pipe
        return {"ok": False, "error": {
            "type": "InternalError",
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=8),
        }}


def serve_worker_main(conn, root_seed: int = 0) -> None:
    """Worker process entry point: job loop over a pipe until shutdown."""
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.parallel.pool import SHUTDOWN

    # Isolate this worker's metrics from the parent's.
    set_registry(MetricsRegistry())
    state = WorkerState(root_seed)
    while True:
        try:
            job = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if job is SHUTDOWN:
            break
        op = job.get("op")
        if op == "crash":  # test hook: die without replying
            os._exit(2)
        if op == "sleep":  # test hook: hold the worker busy
            time.sleep(float(job.get("seconds", 1.0)))
            conn.send({"ok": True, "result": {"slept": True}})
            continue
        try:
            conn.send(execute_job(state, job))
        except BrokenPipeError:
            break
    conn.close()
