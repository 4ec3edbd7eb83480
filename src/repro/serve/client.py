"""A small blocking client for the control service (stdlib http.client).

Used by the benchmark's ``serve_mix`` workload and the tests; it is
also the reference for how external callers should talk to the service.
One connection per request (the service speaks ``Connection: close``).
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional, Tuple

__all__ = ["ServeClient", "ServeHTTPError"]


class ServeHTTPError(RuntimeError):
    """A non-2xx response, with the parsed error body attached."""

    def __init__(self, status: int, error: Dict[str, Any]) -> None:
        super().__init__(
            f"HTTP {status}: {error.get('type', '?')}: "
            f"{error.get('message', '')}"
        )
        self.status = status
        self.error = error


class ServeClient:
    """Blocking JSON client bound to one service address."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # -- raw round-trips ----------------------------------------------
    def request_raw(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            return resp.status, {
                k.lower(): v for k, v in resp.getheaders()
            }, payload
        finally:
            conn.close()

    def post_control_raw(self, request: Dict[str, Any]) -> Tuple[int, Dict[str, str], bytes]:
        """POST /v1/control, returning (status, headers, exact body bytes)."""
        body = json.dumps(request, sort_keys=True).encode("utf-8")
        return self.request_raw("POST", "/v1/control", body)

    # -- convenience --------------------------------------------------
    def control(self, **request: Any) -> Dict[str, Any]:
        """Submit a control request; returns the parsed response document.

        The store status rides along as ``response["store"]`` ("hit" or
        "miss"); raises :class:`ServeHTTPError` on any non-200.
        """
        status, headers, payload = self.post_control_raw(request)
        doc = json.loads(payload.decode("utf-8"))
        if status != 200:
            raise ServeHTTPError(status, doc.get("error", {}))
        doc["store"] = headers.get("x-repro-store", "")
        return doc

    def healthz(self) -> Dict[str, Any]:
        status, _, payload = self.request_raw("GET", "/healthz")
        if status != 200:
            raise ServeHTTPError(status, {"type": "Health", "message": ""})
        return json.loads(payload.decode("utf-8"))

    def metrics(self) -> Dict[str, Any]:
        status, _, payload = self.request_raw("GET", "/metrics")
        if status != 200:
            raise ServeHTTPError(status, {"type": "Metrics", "message": ""})
        return json.loads(payload.decode("utf-8"))
