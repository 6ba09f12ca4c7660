"""Tiny JSON client for the serving frontends (CLI, router, load tests).

Keeps the repo dependency-free: everything speaks the JSON schemas of
:mod:`repro.serving.server` over stdlib ``http.client``.  Each client
keeps one persistent HTTP/1.1 connection per calling thread, so a
request pays no TCP connect and no new server thread once its thread
has talked to the endpoint before.
"""

from __future__ import annotations

import http.client
import json
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import current_context


class ServingError(RuntimeError):
    """The server answered with an error status (body included)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Connection(http.client.HTTPConnection):
    """A thread's kept-alive connection; closed when its thread ends."""

    def __del__(self):
        self.close()


class ServingClient:
    """Blocking JSON client for one serving endpoint.

    Requests automatically carry a ``traceparent`` header when the
    calling thread has an open span (or activated remote context), so a
    client-side ``with span(...)`` is all it takes to stitch the
    server's work into the caller's distributed trace.

    Connections are per thread and kept alive.  A server may close an
    idle one at any time; when a *reused* connection fails before any
    response arrives, the request cannot have been handled, so it is
    sent once more on a fresh connection.  Every other failure raises.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        scheme, _, rest = self.base_url.partition("://")
        self._netloc, slash, path = rest.partition("/")
        if scheme != "http" or not self._netloc:
            raise ValueError(f"expected an http://host:port URL, got {base_url!r}")
        self._prefix = slash + path
        self._local = threading.local()
        # every live thread's connection, for close()
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    def _connection(self) -> _Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(self._netloc, timeout=self.timeout)
            self._local.connection = connection
            self._connections.add(connection)
        return connection

    def close(self) -> None:
        """Close every thread's connection; the next request reconnects."""
        for connection in list(self._connections):
            connection.close()

    def _exchange(
        self, method: str, path: str, body: Optional[Dict], headers: Optional[Dict]
    ) -> Tuple[int, bytes]:
        """``(status, raw body)`` of one request on this thread's connection."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        merged: Dict[str, str] = {"Content-Type": "application/json"} if data else {}
        ctx = current_context()
        if ctx is not None:
            ctx.inject(merged)
        if headers:
            merged.update({k: v for k, v in headers.items() if v is not None})
        connection = self._connection()
        reused = connection.sock is not None
        while True:
            try:
                connection.request(method, self._prefix + path, body=data, headers=merged)
                response = connection.getresponse()
            except ConnectionError as exc:
                connection.close()
                if reused:
                    # a kept-alive socket the server already closed: no
                    # response, so the request was never handled; the
                    # retry opens a fresh connection, which is not retried
                    reused = False
                    continue
                raise ServingError(0, f"cannot reach {self.base_url}: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                raise ServingError(0, f"cannot reach {self.base_url}: {exc}") from exc
            try:
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                raise ServingError(0, f"{self.base_url}: response cut off: {exc}") from exc

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        headers: Optional[Dict] = None,
    ) -> Dict:
        status, raw = self._exchange(method, path, body, headers)
        if status >= 400:
            try:
                detail = json.loads(raw.decode("utf-8")).get("error", "")
            except Exception:
                detail = raw.decode("utf-8", "replace")
            raise ServingError(status, detail)
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    def post(self, path: str, body: Dict, headers: Optional[Dict] = None) -> Dict:
        """POST an arbitrary JSON body (cluster-internal routes)."""
        return self._request("POST", path, body, headers=headers)

    def metrics_text(self) -> str:
        """Raw Prometheus exposition from ``GET /metrics`` (plain text)."""
        status, raw = self._exchange("GET", "/metrics", None, None)
        if status >= 400:
            raise ServingError(status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def health(self) -> Dict:
        return self._request("GET", "/health")

    def stats(self) -> Dict:
        return self._request("GET", "/stats")

    def ingest(
        self,
        events: Sequence[Sequence[int]],
        timestamp: Optional[int] = None,
        flush: bool = False,
    ) -> Dict:
        """Send (n, 3) triples with a timestamp, or (n, 4) quads."""
        rows = [list(map(int, row)) for row in events]
        widths = {len(row) for row in rows}
        if widths == {4} and timestamp is None:
            body: Dict = {"quads": rows}
        elif widths == {3}:
            if timestamp is None:
                raise ValueError("timestamp is required for (s, r, o) triples")
            body = {"events": rows, "timestamp": int(timestamp)}
        elif widths == {4}:
            body = {"events": [row[:3] for row in rows], "timestamp": int(timestamp)}
        else:
            raise ValueError("events must be uniformly (s, r, o) or (s, r, o, t)")
        if flush:
            body["flush"] = True
        return self._request("POST", "/ingest", body)

    def predict(
        self,
        subject: int,
        relation: int,
        top_k: int = 10,
        inverse: bool = False,
    ) -> Dict:
        return self._request(
            "POST",
            "/predict",
            {
                "subject": int(subject),
                "relation": int(relation),
                "top_k": int(top_k),
                "inverse": bool(inverse),
            },
        )

    def predict_many(self, queries: List[Dict], top_k: int = 10) -> Dict:
        return self._request("POST", "/predict", {"queries": queries, "top_k": int(top_k)})
