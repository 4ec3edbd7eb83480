"""The serving wire contract: request schema, validation, content digests.

One request = one JSON object.  Two kinds exist:

- ``kind: "solve"`` — run the requested method's optimisation loop and
  return the best control (the online analogue of one Table-3 run);
- ``kind: "evaluate"`` — price a given control under the problem's
  physical cost ``J(c)``.  Evaluations are method-independent (the cost
  is a property of the PDE problem, not the optimiser): one solve
  against the warm worker's cached factorisation for Laplace, one
  projection forward for Navier–Stokes.

Every field that affects the answer is folded into the request's
**content digest** (:func:`request_digest`, built on
:func:`repro.obs.fingerprint.config_digest`): the digest keys the
disk-backed result store, the per-worker oracle caches, and — combined
with :func:`repro.parallel.derive_seed` — the request's deterministic
seed.  Two requests with equal digests are the *same* computation and
may share one result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs.fingerprint import config_digest

__all__ = [
    "FAMILIES",
    "KINDS",
    "METHODS",
    "ControlRequest",
    "RequestError",
    "parse_request",
    "request_digest",
]

FAMILIES = ("laplace", "ns")
METHODS = ("dp", "dal", "pinn")
KINDS = ("solve", "evaluate")

#: Hard caps keeping one request from occupying a worker indefinitely.
MAX_NX = 80
MAX_ITERATIONS = 2000
MAX_PROFILE_LEN = 4096

_DEFAULT_ITERATIONS = {"solve": 60, "evaluate": 0}
_DEFAULT_LR = {"dp": 1e-2, "dal": 1e-2, "pinn": 2e-3}


class RequestError(ValueError):
    """A request that fails validation (HTTP 400)."""


@dataclass(frozen=True)
class ControlRequest:
    """One validated control request (all defaults resolved)."""

    family: str                      # "laplace" | "ns"
    kind: str                        # "solve" | "evaluate"
    method: str                      # "dp" | "dal" | "pinn"
    nx: int
    ny: int                          # ns only; 0 for laplace
    iterations: int
    lr: float
    tolerance: Optional[float]       # converged iff final_cost <= tolerance
    target: Optional[Tuple[float, ...]]   # custom target profile (laplace)
    control: Optional[Tuple[float, ...]]  # the control to price (evaluate)
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "kind": self.kind,
            "method": self.method,
            "nx": self.nx,
            "ny": self.ny,
            "iterations": self.iterations,
            "lr": self.lr,
            "tolerance": self.tolerance,
            "target": list(self.target) if self.target is not None else None,
            "control": list(self.control) if self.control is not None else None,
            "seed": self.seed,
        }


def _finite_floats(value: Any, name: str, max_len: int) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise RequestError(f"{name!r} must be a non-empty array of numbers")
    if len(value) > max_len:
        raise RequestError(f"{name!r} is too long ({len(value)} > {max_len})")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise RequestError(f"{name}[{i}] must be a number, got {type(v).__name__}")
        f = float(v)
        if not math.isfinite(f):
            raise RequestError(f"{name}[{i}] must be finite, got {f!r}")
        out.append(f)
    return tuple(out)


def _int_in(value: Any, name: str, lo: int, hi: int, default: int) -> int:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name!r} must be an integer")
    if not lo <= value <= hi:
        raise RequestError(f"{name!r} must be in [{lo}, {hi}], got {value}")
    return value


def parse_request(obj: Any) -> ControlRequest:
    """Validate a decoded JSON body into a :class:`ControlRequest`.

    Raises :class:`RequestError` with a client-facing message on any
    violation; never mutates ``obj``.
    """
    if not isinstance(obj, Mapping):
        raise RequestError(
            f"request body must be a JSON object, got {type(obj).__name__}"
        )
    unknown = set(obj) - {
        "family", "kind", "method", "nx", "ny", "iterations", "lr",
        "tolerance", "target", "control", "seed",
    }
    if unknown:
        raise RequestError(f"unknown request fields: {sorted(unknown)}")

    family = obj.get("family")
    if family not in FAMILIES:
        raise RequestError(f"'family' must be one of {list(FAMILIES)}, got {family!r}")
    kind = obj.get("kind", "solve")
    if kind not in KINDS:
        raise RequestError(f"'kind' must be one of {list(KINDS)}, got {kind!r}")
    # Evaluation is method-independent; default it so evaluate requests
    # that differ only in an irrelevant 'method' share one digest.
    method = obj.get("method", "dp" if kind == "evaluate" else None)
    if method not in METHODS:
        raise RequestError(f"'method' must be one of {list(METHODS)}, got {method!r}")
    if kind == "evaluate":
        method = "dp"
    if family == "ns" and method == "pinn":
        raise RequestError(
            "method 'pinn' is not served for family 'ns' "
            "(training cost is out of the online budget; run it via "
            "python -m repro.bench)"
        )

    nx = _int_in(obj.get("nx"), "nx", 6, MAX_NX, 26 if family == "laplace" else 21)
    ny = 0
    if family == "ns":
        ny = _int_in(obj.get("ny"), "ny", 6, MAX_NX, 11)
    elif obj.get("ny") is not None:
        raise RequestError("'ny' is only valid for family 'ns'")

    iterations = _int_in(
        obj.get("iterations"), "iterations", 0 if kind == "evaluate" else 1,
        MAX_ITERATIONS, _DEFAULT_ITERATIONS[kind] or 60,
    )
    if kind == "evaluate":
        iterations = 0

    lr = obj.get("lr")
    if lr is None:
        lr = _DEFAULT_LR[method]
    elif isinstance(lr, bool) or not isinstance(lr, (int, float)) \
            or not math.isfinite(float(lr)) or float(lr) <= 0.0:
        raise RequestError(f"'lr' must be a positive finite number, got {lr!r}")
    lr = float(lr)

    tolerance = obj.get("tolerance")
    if tolerance is not None:
        if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) \
                or not math.isfinite(float(tolerance)) or float(tolerance) <= 0.0:
            raise RequestError(
                f"'tolerance' must be a positive finite number, got {tolerance!r}"
            )
        tolerance = float(tolerance)

    target = obj.get("target")
    if target is not None:
        if family != "laplace":
            raise RequestError("custom 'target' profiles are laplace-only")
        target = _finite_floats(target, "target", MAX_PROFILE_LEN)

    control = obj.get("control")
    if kind == "evaluate":
        if control is None:
            raise RequestError("'control' is required for kind 'evaluate'")
        control = _finite_floats(control, "control", MAX_PROFILE_LEN)
    elif control is not None:
        raise RequestError("'control' is only valid for kind 'evaluate'")

    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise RequestError(f"'seed' must be a non-negative integer, got {seed!r}")

    return ControlRequest(
        family=family, kind=kind, method=method, nx=nx, ny=ny,
        iterations=iterations, lr=lr, tolerance=tolerance,
        target=target, control=control, seed=seed,
    )


def request_digest(request: ControlRequest) -> str:
    """Content digest of everything that affects the answer.

    Defaults are resolved *before* digesting, so ``{"family":
    "laplace"}`` and ``{"family": "laplace", "nx": 26}`` are the same
    request — and the same store entry.
    """
    return config_digest(request.to_dict())

