"""Control-as-a-service: a long-running solve endpoint over the repo's
optimal-control machinery.

The serving layer turns the batch benchmark stack into an online
service: JSON control requests (problem family, method, target profile,
tolerance, scale) arrive over HTTP, are validated and content-digested
(:mod:`repro.serve.protocol`), and routed to a pool of *warm* worker
processes (:mod:`repro.parallel.pool`, shared with the task engine;
the job loop is :mod:`repro.serve.worker`) that keep compiled programs
and LU factorisations alive across requests.  Compatible cost
evaluations are coalesced into one multi-RHS solve
(:mod:`repro.serve.coalesce`), and completed results land in a
disk-backed store keyed by request digest (:mod:`repro.serve.store`) so
idempotent re-submits replay byte-for-byte without touching a worker.

Everything is stdlib: ``asyncio`` for the HTTP front
(:mod:`repro.serve.service`), ``multiprocessing`` pipes for the workers.
``python -m repro.serve`` boots the service.  The benchmark's
``serve_mix`` workload (``perf/run.py --workload serve_mix``) drives it
with concurrent clients and checks every reply, store replay and a
parity sample against direct execution; ``tests/serve/`` pins the rest
of its contract.
"""

from repro.serve.protocol import (
    ControlRequest,
    RequestError,
    parse_request,
    request_digest,
)
from repro.serve.service import ControlService, ServeConfig
from repro.serve.store import ResultStore
from repro.serve.client import ServeClient
from repro.serve.runner import ServiceThread

__all__ = [
    "ControlRequest",
    "ControlService",
    "RequestError",
    "ResultStore",
    "ServeClient",
    "ServeConfig",
    "ServiceThread",
    "parse_request",
    "request_digest",
]
