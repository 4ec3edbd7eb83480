"""End-of-run cache telemetry from oracles and solvers.

The per-iteration hooks live inside the loops themselves; this module
reports the *cumulative* cache counters that only make sense once a run
is over.  :func:`cache_counts` is the one hit/miss rule, shared with
the served ``/metrics`` totals.  Totals land in the active metrics
registry as ``cache.<name>.hits``/``.misses`` gauges first, and the
installed recorder's ``cache`` record is read back off the registry,
so both always agree; with no recorder installed the registry still
gets them.  Everything is duck-typed, and an oracle's own
``report_telemetry`` is preferred when it exists.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.obs.recorder import current_recorder


def cache_counts(owner: Any) -> Optional[Tuple[int, int]]:
    """``(hits, misses)`` of a solver's or a compiled program's cache.

    A compiled ``value_and_grad`` wrapper (``cache_info()``): replays
    are hits; traces and permanent-eager calls are misses.  A solver
    with ``n_factorizations``/``n_solves`` counters
    (:class:`~repro.autodiff.linalg.LUSolver`,
    :class:`~repro.autodiff.sparse.SparseLUSolver`, the
    :mod:`repro.rbf.solver` classes): a factorisation is a miss, every
    further solve a hit.  ``None`` for anything else.
    """
    if owner is None:
        return None
    cache_info = getattr(owner, "cache_info", None)
    if callable(cache_info):
        info = cache_info()
        return (
            int(info.get("replays", 0)),
            int(info.get("traces", 0)) + int(info.get("eager", 0)),
        )
    n_fact = getattr(owner, "n_factorizations", None)
    n_solves = getattr(owner, "n_solves", None)
    if n_fact is None or n_solves is None:
        return None
    return max(int(n_solves) - int(n_fact), 0), int(n_fact)


def _publish(name: str, owner: Any) -> None:
    """Registry first; then the trace record, read back off the registry."""
    counts = cache_counts(owner)
    if counts is None:
        return
    reg = get_registry()
    reg.record_cache(name, *counts)
    rec = current_recorder()
    if rec is not None:
        rec.cache_stats(
            name,
            hits=int(reg.get(f"cache.{name}.hits").value),
            misses=int(reg.get(f"cache.{name}.misses").value),
        )


def record_solver_cache(solver: Any, name: str = "lu-cache") -> None:
    """Report a solver's factorise-once/solve-many behaviour as cache stats."""
    _publish(name, solver)


def record_compile_cache(vg: Any, name: str = "compiled-replay") -> None:
    """Report a compiled ``value_and_grad`` wrapper's program-cache stats."""
    _publish(name, vg)


def record_oracle_telemetry(oracle: Any) -> None:
    """Collect an oracle's cumulative telemetry.

    Prefers the oracle's own ``report_telemetry()`` (every control
    oracle in :mod:`repro.control` implements it); falls back to the
    conventional ``solver`` / ``_vg`` attributes otherwise.
    """
    if oracle is None:
        return
    report = getattr(oracle, "report_telemetry", None)
    if callable(report):
        report()
        return
    record_solver_cache(getattr(oracle, "solver", None))
    record_compile_cache(getattr(oracle, "_vg", None))
