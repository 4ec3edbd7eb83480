"""Environment fingerprinting and config content-digests for provenance.

Every artifact this repo writes — trace JSONL headers, Chrome-trace
metadata, metrics snapshots, served request digests — should answer
the same question when a number looks off six months later: *what
exactly produced this?*  Two primitives cover it:

- :func:`environment_fingerprint` — the machine/build identity: git SHA,
  CPU count, platform, Python and NumPy versions, the BLAS NumPy was
  built against, and every ``REPRO_*`` environment switch in effect.
  Cheap to call repeatedly (the expensive probes are cached; the
  ``REPRO_*`` capture is re-read every call so scoped env overrides are
  honoured).
- :func:`config_digest` — a short content-hash of an arbitrary config
  object (dataclasses included) under canonical JSON, so two runs are
  comparable iff their digests match, regardless of dict ordering.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Optional

__all__ = ["config_digest", "environment_fingerprint"]

#: Cached static half of the fingerprint (git SHA, BLAS probe, ...).
_STATIC: Optional[Dict[str, Any]] = None


def _git_sha() -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a checkout.

    Tries ``git rev-parse`` in the working directory, then next to this
    package (editable installs), then the ``GITHUB_SHA`` CI variable.
    """
    for cwd in (os.getcwd(), os.path.dirname(os.path.abspath(__file__))):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd, capture_output=True, text=True, timeout=5.0,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        sha = out.stdout.strip()
        if out.returncode == 0 and sha:
            return sha
    return os.environ.get("GITHUB_SHA") or None


def _numpy_info() -> Dict[str, Any]:
    """NumPy version plus the BLAS it was built against (best effort)."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return {"numpy": None, "blas": "unknown"}
    blas = "unknown"
    try:  # numpy >= 1.26 structured config
        cfg = np.show_config(mode="dicts")  # type: ignore[call-arg]
        dep = (cfg or {}).get("Build Dependencies", {}).get("blas", {})
        name = dep.get("name") or ""
        version = dep.get("version") or ""
        blas = f"{name} {version}".strip() or "unknown"
    except TypeError:
        try:  # older numpy: distutils-style system_info
            info = np.__config__.get_info("blas_opt_info")  # type: ignore[attr-defined]
            blas = ",".join(info.get("libraries", ())) or "unknown"
        except Exception:
            pass
    except Exception:
        pass
    return {"numpy": np.__version__, "blas": blas}


def _static_fingerprint() -> Dict[str, Any]:
    global _STATIC
    if _STATIC is None:
        info = _numpy_info()
        _STATIC = {
            "git_sha": _git_sha(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count() or 1,
            "numpy": info["numpy"],
            "blas": info["blas"],
        }
    return _STATIC


def environment_fingerprint() -> Dict[str, Any]:
    """The provenance stamp shared by every performance artifact.

    Returns a fresh plain dict each call (callers may mutate it).  The
    expensive probes (``git rev-parse``, the NumPy BLAS introspection)
    run once per process; the ``REPRO_*`` environment capture is live so
    scoped overrides (tests, CI matrix legs) show up faithfully.
    """
    out = dict(_static_fingerprint())
    out["env"] = {
        k: os.environ[k] for k in sorted(os.environ) if k.startswith("REPRO_")
    }
    return out


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to canonically-ordered JSON-serialisable values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def config_digest(obj: Any) -> str:
    """Short sha256 content-digest of a config under canonical JSON.

    Dataclasses are expanded field-by-field; dict keys are sorted;
    tuples and lists hash identically.  Two configurations produce the
    same digest iff they would produce the same canonical JSON — the
    service keys its result store and worker oracle caches on it.
    """
    blob = json.dumps(
        _canonical(obj), separators=(",", ":"), sort_keys=True, allow_nan=True
    )
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
