"""Trace recording: the live :class:`TraceRecorder` and its no-op twin.

A recorder is installed process-wide like the profiler, the registry
and the watchdog (:mod:`repro.obs._install`): :func:`recording` /
:func:`set_recorder` install it and instrumented code reads it with
:func:`current_recorder`, hoisted out of its loop.  With none installed
(or the shared :data:`NULL_RECORDER`, which installs as ``None``) the
hot path is allocation-free: each emission is guarded by one
``is not None`` test.  The enabled path appends frozen
:mod:`repro.obs.schema` records to in-memory lists and defers all
serialisation to :meth:`TraceRecorder.to_jsonl`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs._install import Slot
from repro.obs.schema import (
    CacheRecord,
    HealthRecord,
    IterationRecord,
    Record,
    SolverRecord,
    decode_header,
    decode_record,
    dumps_line,
    encode_header,
    encode_record,
)

import json


def _health_counts(events: List[HealthRecord]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for ev in events:
        out[ev.check] = out.get(ev.check, 0) + 1
    return out


class TraceRecorder:
    """Collects typed per-iteration telemetry for one run.

    Records are kept in emission order in :attr:`records`; convenience
    views (:attr:`iterations`, :attr:`solver_events`, :attr:`caches`)
    filter by kind.  ``meta`` carries run identity (method, problem,
    scale, backend) plus anything the run reports at the end (wall time,
    iterations run) — golden comparisons only look at the identity keys.
    """

    enabled = True

    def __init__(self, **meta: Any) -> None:
        self.meta: Dict[str, Any] = dict(meta)
        #: Environment fingerprint written into the JSONL header.  Left
        #: ``None`` it is captured lazily at :meth:`to_jsonl` time; set
        #: it explicitly (e.g. to ``{}``) to override or suppress.
        self.env: Optional[Dict[str, Any]] = None
        # Holds schema records plus raw iteration tuples awaiting
        # materialisation (see :meth:`iteration`); consumers go through
        # the :attr:`records` property, which settles the tuples first.
        self._records: List[Any] = []

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[Record]:
        """All records in emission order (materialised)."""
        self._materialize()
        return self._records

    def _materialize(self) -> None:
        recs = self._records
        for i, r in enumerate(recs):
            if type(r) is tuple:
                it, cost, grad_norm, step_size, phases = r
                recs[i] = IterationRecord(
                    iteration=int(it),
                    cost=float(cost),
                    grad_norm=float(grad_norm),
                    step_size=float(step_size),
                    phases=dict(phases) if phases else {},
                )

    # -- emission ------------------------------------------------------
    def set_meta(self, **kv: Any) -> None:
        """Merge key/value pairs into the run metadata."""
        self.meta.update(kv)

    def iteration(
        self,
        iteration: int,
        cost: float,
        grad_norm: float,
        step_size: float,
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        """Record one optimiser step.

        This is the hottest emission path (once per optimiser iteration),
        so it appends a raw tuple — frozen-dataclass construction costs
        microseconds that show up against sub-millisecond iterations —
        and defers the :class:`IterationRecord` to the first read.
        """
        self._records.append((iteration, cost, grad_norm, step_size, phases))

    def solver_event(
        self,
        solver: str,
        event: str,
        n: int,
        seconds: float = 0.0,
        residual: Optional[float] = None,
        condition_estimate: Optional[float] = None,
        nnz: Optional[int] = None,
        iterations: Optional[int] = None,
    ) -> None:
        """Record one factorisation/solve event."""
        self._records.append(
            SolverRecord(
                solver=solver,
                event=event,
                n=int(n),
                seconds=float(seconds),
                residual=None if residual is None else float(residual),
                condition_estimate=(
                    None if condition_estimate is None else float(condition_estimate)
                ),
                nnz=None if nnz is None else int(nnz),
                iterations=None if iterations is None else int(iterations),
            )
        )

    def cache_stats(self, cache: str, hits: int, misses: int) -> None:
        """Record cumulative hit/miss counters of one cache."""
        self._records.append(
            CacheRecord(cache=cache, hits=int(hits), misses=int(misses))
        )

    def health_event(
        self,
        check: str,
        severity: str,
        iteration: int,
        value: float,
        message: str = "",
    ) -> None:
        """Record one watchdog health event (see :mod:`repro.obs.health`)."""
        self._records.append(
            HealthRecord(
                check=check,
                severity=severity,
                iteration=int(iteration),
                value=float(value),
                message=message,
            )
        )

    def absorb(self, other: "TraceRecorder") -> None:
        """Append another recorder's records and merge its metadata.

        Used to fold the recorders of parallel task attempts back into
        the parent's trace in task order — the merged record stream (and
        the last-write-wins metadata) matches what the serial run would
        have emitted into one shared recorder.
        """
        self.meta.update(other.meta)
        self._records.extend(other.records)

    # -- views ---------------------------------------------------------
    @property
    def iterations(self) -> List[IterationRecord]:
        return [r for r in self.records if isinstance(r, IterationRecord)]

    @property
    def solver_events(self) -> List[SolverRecord]:
        return [r for r in self.records if isinstance(r, SolverRecord)]

    @property
    def caches(self) -> List[CacheRecord]:
        return [r for r in self.records if isinstance(r, CacheRecord)]

    @property
    def healths(self) -> List[HealthRecord]:
        return [r for r in self.records if isinstance(r, HealthRecord)]

    # -- summary -------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Headline numbers of the trace (what ``repro.obs summary`` prints)."""
        iters = self.iterations
        costs = [r.cost for r in iters]
        finite = [c for c in costs if c == c]  # drop NaN
        phase_totals: Dict[str, float] = {}
        for r in iters:
            for name, sec in r.phases.items():
                phase_totals[name] = phase_totals.get(name, 0.0) + sec
        return {
            "meta": dict(self.meta),
            "n_iterations": len(iters),
            "first_cost": costs[0] if costs else None,
            "final_cost": costs[-1] if costs else None,
            "best_cost": min(finite) if finite else None,
            "max_grad_norm": max((r.grad_norm for r in iters), default=None),
            "phase_seconds": phase_totals,
            "n_solver_events": len(self.solver_events),
            "caches": {
                r.cache: {"hits": r.hits, "misses": r.misses, "hit_rate": r.hit_rate}
                for r in self.caches
            },
            "health": _health_counts(self.healths),
        }

    # -- persistence ---------------------------------------------------
    def to_jsonl(self, path) -> None:
        """Write the trace as one JSON object per line (header first).

        The header carries the environment fingerprint (see
        :mod:`repro.obs.fingerprint`) so trace artifacts share provenance
        with profile artifacts; it rides outside ``meta`` and never affects
        golden identity comparisons.
        """
        env = self.env
        if env is None:
            from repro.obs.fingerprint import environment_fingerprint

            env = environment_fingerprint()
        with open(path, "w", encoding="utf-8") as f:
            f.write(dumps_line(encode_header(self.meta, env=env)) + "\n")
            for rec in self.records:
                f.write(dumps_line(encode_record(rec)) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "TraceRecorder":
        """Load a trace written by :meth:`to_jsonl`."""
        rec = cls()
        with open(path, "r", encoding="utf-8") as f:
            first = f.readline()
            if not first.strip():
                raise ValueError(f"empty trace file: {path}")
            header = json.loads(first)
            rec.meta = decode_header(header)
            rec.env = header.get("env")
            for line in f:
                line = line.strip()
                if line:
                    rec.records.append(decode_record(json.loads(line)))
        return rec


class NullRecorder:
    """Telemetry disabled: every method is a no-op and ``bool()`` is False.

    The class is stateless (``__slots__`` is empty) and the methods take
    the same signatures as :class:`TraceRecorder`, so it can stand in
    anywhere a recorder is expected without branching at the call sites.
    Installing it is the same as installing none.
    """

    __slots__ = ()
    enabled = False

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def set_meta(self, **kv: Any) -> None:
        pass

    def iteration(self, iteration, cost, grad_norm, step_size, phases=None) -> None:
        pass

    def solver_event(
        self,
        solver,
        event,
        n,
        seconds=0.0,
        residual=None,
        condition_estimate=None,
        nnz=None,
        iterations=None,
    ) -> None:
        pass

    def cache_stats(self, cache, hits, misses) -> None:
        pass

    def health_event(self, check, severity, iteration, value, message="") -> None:
        pass


#: Shared stateless no-op recorder.
NULL_RECORDER = NullRecorder()


# The process-wide installed recorder.  ``None`` (the default) keeps
# every instrumented loop on its no-op path.
_RECORDER = Slot()


def current_recorder() -> Optional[TraceRecorder]:
    """The installed recorder, or ``None`` when tracing is disabled."""
    return _RECORDER.current


def set_recorder(recorder: Optional[TraceRecorder]) -> Optional[TraceRecorder]:
    """Install ``recorder`` process-wide; returns the previous one."""
    return _RECORDER.set(recorder)


def recording(recorder: Optional[TraceRecorder] = None):
    """``with recording() as rec:`` — install (a fresh) recorder for a block."""
    return _RECORDER.scoped(recorder if recorder is not None else TraceRecorder())
