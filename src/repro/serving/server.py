"""Dependency-free JSON-over-HTTP frontend on stdlib ``http.server``.

Routes (see ``docs/serving.md`` for full request/response schemas):

- ``GET  /health``  — liveness + model identity.
- ``GET  /stats``   — per-endpoint latency percentiles / throughput,
  engine cache + batching counters, store state.
- ``GET  /metrics`` — the process-wide :mod:`repro.obs` registry in
  Prometheus text exposition format (request latency histograms, cache
  hit/miss counters, window version, ...).
- ``POST /ingest``  — stream events; ``{"events": [[s, r, o], ...],
  "timestamp": t}`` or ``{"quads": [[s, r, o, t], ...]}``; optional
  ``"flush": true`` seals the open snapshot immediately.
- ``POST /predict`` — one query (``subject``/``relation``/``top_k``/
  ``inverse`` fields) or many (``{"queries": [...]}``, answered by one
  batched forward pass).

The server is a ``ThreadingHTTPServer``: each ``/predict`` request is
answered on its own handler thread, and concurrent requests share the
encode through the engine's encoder-state cache.

Two pieces here are deliberately generic so the cluster plane
(:mod:`repro.serving.router`, :mod:`repro.serving.shard`) reuses them
instead of reinventing HTTP plumbing:

- :class:`BaseJSONHandler` — JSON body parsing, response encoding,
  route dispatch with per-route request counters on the metrics
  registry, and the drain-aware 503 on mutating routes;
- :class:`DrainableHTTPServer` — a ``ThreadingHTTPServer`` that counts
  in-flight requests and supports graceful drain: ``begin_drain()``
  flips ``/health`` to ``"draining"`` and rejects new work while
  :meth:`~DrainableHTTPServer.drain` waits for in-flight requests to
  finish.  :func:`run_with_graceful_shutdown` wires SIGTERM/SIGINT to
  that sequence for the CLI entry points.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs.health import health_counter
from repro.obs.logging import log_event
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry, new_instance
from repro.obs.profiler import active_profiler
from repro.obs.trace import TraceContext, activate, span
from repro.obs.runs import RunLedger, default_ledger_path
from repro.serving.audit import AUDIT_DEFAULT_CAPACITY, RequestAudit
from repro.serving.engine import InferenceEngine
from repro.serving.validation import BadRequest, parse_ingest, parse_predict

MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle before the server
#: closes it (and frees its handler thread).
IDLE_TIMEOUT_S = 30.0

#: Structured access-log stream: one ``http.access`` event per request
#: (request id, trace id, route, status, latency).  NullHandler by
#: default — ``configure_logging()`` or any root handler surfaces it.
ACCESS_LOGGER = logging.getLogger("repro.serving.access")
ACCESS_LOGGER.addHandler(logging.NullHandler())

REQUEST_ID_HEADER = "X-Request-Id"


def new_request_id() -> str:
    """A fresh 16-hex request id (generated when the client sent none)."""
    return uuid.uuid4().hex[:16]


class DrainableHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server with in-flight tracking and graceful drain.

    Requests are counted on the registry's ``repro_http_*`` families
    (:func:`record_request`) under this server's own ``instance`` label,
    so ``/stats`` lists only its own routes even beside other servers in
    one process; ``started`` sets ``/stats``'s ``uptime_s``.  No server
    starts while an ``OpProfiler`` patches ``Tensor`` process-wide.

    ``begin_drain()`` marks the server as draining: mutating routes
    (see :attr:`BaseJSONHandler.drain_rejected`) start answering 503
    while requests already past the door run to completion.
    ``drain(timeout)`` blocks until the in-flight count reaches zero
    (or the timeout passes) — after it returns, ``shutdown()`` +
    ``server_close()`` cannot cut off a response mid-write.

    Connections are kept alive between requests, so ``server_close()``
    also shuts down every established connection: a closed server is
    unreachable even to a client holding an open socket.
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        handler_class,
        verbose: bool = False,
        request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
    ):
        if active_profiler() is not None:
            raise RuntimeError("an OpProfiler is enabled; no server may run beside it")
        super().__init__(address, handler_class)
        self.verbose = verbose
        self.audit = RequestAudit(request_log_entries) if request_log_entries else None
        self.started = time.monotonic()
        self.registry = get_registry()
        self.instance = new_instance("http")
        _http_families(self.registry)  # render on /metrics before the first request
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._draining = threading.Event()
        self._open_sockets: set = set()
        self._sockets_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._sockets_lock:
            self._open_sockets.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._sockets_lock:
            self._open_sockets.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._sockets_lock:
            sockets = list(self._open_sockets)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler thread

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        self._draining.set()

    def request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - 1)
            if self._inflight == 0:
                self._idle.notify_all()

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop accepting work and wait for in-flight requests; True if idle."""
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout)
        with self._inflight_lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=min(remaining, 0.1))
        return True

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stats_snapshot(self) -> Dict[str, object]:
        """``/stats``'s ``server`` section, read from the registry."""
        return http_stats(self.registry, self.instance, time.monotonic() - self.started)


def _http_families(registry: MetricsRegistry):
    """The request counter, error counter and latency histogram families."""
    labels = ("instance", "route")
    return (
        registry.counter("repro_http_requests_total", "HTTP requests served.", labels),
        registry.counter("repro_http_errors_total", "HTTP requests that failed.", labels),
        registry.histogram(
            "repro_http_request_latency_seconds",
            "HTTP request latency (successful requests).",
            labels,
        ),
    )


def record_request(
    registry: MetricsRegistry, instance: str, route: str, latency_s: float, error: bool
) -> None:
    """Count one request; only successful requests feed the latency histogram."""
    requests, errors, latency = _http_families(registry)
    requests.labels(instance, route).inc()
    if error:
        errors.labels(instance, route).inc()
    else:
        latency.labels(instance, route).observe(latency_s)


def http_stats(registry: MetricsRegistry, instance: str, uptime_s: float) -> Dict[str, object]:
    """Per-route request counts and recent latency percentiles of one server.

    A view over the ``repro_http_*`` children labelled ``instance``.
    Latencies come from each histogram's ring of recent samples.
    """
    requests, errors, latency = _http_families(registry)
    error_counts = {labels: child.value for labels, child in errors.children()}
    latencies = dict(latency.children())
    endpoints = {}
    for labels, child in requests.children():
        if labels[0] != instance:
            continue
        # a route that has only failed has no latency ring
        recent = (latencies.get(labels) or Histogram()).snapshot()
        endpoints[labels[1]] = {
            "requests": int(child.value),
            "errors": int(error_counts.get(labels, 0)),
            "latency_ms": {
                name: round(recent[key] * 1e3, 3)
                for name, key in (("mean", "recent_mean"), ("p50", "p50"),
                                  ("p95", "p95"), ("p99", "p99"))
            },
        }
    uptime_s = max(uptime_s, 1e-9)
    total = sum(ep["requests"] for ep in endpoints.values())
    return {
        "uptime_s": round(uptime_s, 3),
        "total_requests": total,
        "requests_per_s": round(total / uptime_s, 3),
        "endpoints": endpoints,
    }


def run_with_graceful_shutdown(server: DrainableHTTPServer, drain_timeout: float = 10.0):
    """``serve_forever`` with SIGTERM/SIGINT mapped to drain-then-stop.

    On the first signal the server flips to draining (503 on new work,
    ``/health`` reports ``"draining"``), a helper thread waits out the
    in-flight requests, and only then is the accept loop shut down.
    Handlers are restored on exit so nested/serial servers in one
    process (tests) do not leak signal state.  Must run on the main
    thread (CPython restricts ``signal.signal`` to it); the caller
    still owns ``server_close()``.
    """

    def _initiate(signum, frame):  # noqa: ARG001 - signal signature
        if server.draining:
            return  # second signal: drain already in progress
        server.begin_drain()

        def _finish():
            server.drain(timeout=drain_timeout)
            server.shutdown()

        threading.Thread(target=_finish, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _initiate) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


class BaseJSONHandler(BaseHTTPRequestHandler):
    """JSON plumbing + route dispatch shared by every serving frontend.

    Subclasses implement :meth:`routes` returning ``{"METHOD /path":
    callable}`` where each callable returns ``(payload_dict, status)``.
    ``GET /metrics`` is handled here (Prometheus text, not JSON)
    from the server's ``registry``.  While the server is
    draining, routes listed in :attr:`drain_rejected` answer 503 so a
    supervisor can drain a node without failing reads.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"
    #: Keep-alive: headers and body go out in two writes, which would
    #: stall on the peer's delayed ACK under Nagle's algorithm.
    disable_nagle_algorithm = True
    #: Socket timeout; an idle kept-alive connection is closed after it.
    timeout = IDLE_TIMEOUT_S

    #: Routes refused (503) once draining begins — mutating or
    #: long-running work; health/stats/metrics stay available so the
    #: drain itself is observable.
    drain_rejected = ("POST /ingest", "POST /predict", "POST /decode")

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _read_json(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise BadRequest("a JSON body is required")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"body too large ({length} bytes)")
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequest("JSON body must be an object")
        return body

    def _send_json(self, payload: Dict, status: int = 200) -> None:
        # Every response carries the request's identity; errors and
        # degraded (partial) replies embed it in the body too, so a
        # client log line is enough to find the matching audit entry.
        request_id = getattr(self, "request_id", None)
        if request_id and isinstance(payload, dict):
            if status >= 400 or payload.get("partial"):
                payload.setdefault("request_id", request_id)
        self._send(json.dumps(payload).encode("utf-8"), "application/json", status)

    def _send(self, data: bytes, content_type: str, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        request_id = getattr(self, "request_id", None)
        if request_id:
            self.send_header(REQUEST_ID_HEADER, request_id)
        self.send_header("Content-Length", str(len(data)))
        if self._body_unread():
            # the unread body would be parsed as the next request
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)
        self._response_status = status

    def _body_unread(self) -> bool:
        """Whether the request carried a body this handler never read."""
        if self._body_read:
            return False
        length = (self.headers.get("Content-Length") or "0").strip()
        return length != "0" or "Transfer-Encoding" in self.headers

    def routes(self) -> Dict[str, object]:
        """Route table: ``{"METHOD /path": handler}`` (override)."""
        return {}

    # ------------------------------------------------------------------
    def _route(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        self.query = parse_qs(query) if query else {}
        name = f"{method} {path}"
        # request identity: echo the caller's X-Request-Id / traceparent
        # or mint fresh ones, so every hop of a request shares one
        # (request_id, trace_id) pair even while tracing is disabled.
        self.request_id = (self.headers.get(REQUEST_ID_HEADER) or "").strip() or new_request_id()
        self.trace_ctx = TraceContext.extract(self.headers) or TraceContext.new()
        self.audit_detail: Dict = {}
        self._response_status = 200
        self._body_read = False
        started = time.perf_counter()
        self.server.request_started()
        try:
            with activate(self.trace_ctx):
                self._dispatch(name)
        finally:
            latency_s = time.perf_counter() - started
            status = self._response_status
            if status != 404:  # unknown paths would mint unbounded route labels
                record_request(
                    self.server.registry, self.server.instance, name, latency_s,
                    error=status >= 400,
                )
            self._audit(name, latency_s * 1e3)
            self.server.request_finished()

    def _dispatch(self, name: str) -> None:
        try:
            if self.server.draining and name in self.drain_rejected:
                self._send_json(
                    {"error": "server is draining", "status": "draining"}, status=503
                )
                return
            if name == "GET /metrics":
                # Prometheus exposition is plain text, not JSON.
                with span("http.request", route=name):
                    self._send(
                        self.server.registry.render_prometheus().encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8",
                        200,
                    )
                return
            if name == "GET /debug/requests" and self.server.audit is not None:
                self._send_json(self._debug_requests_payload())
                return
            handler = self.routes().get(name)
            if handler is None:
                self._send_json({"error": f"unknown route {name!r}"}, status=404)
                return
            with span("http.request", route=name, request_id=self.request_id):
                payload, status = handler()
            self._send_json(payload, status=status)
        except ValueError as exc:  # BadRequest, engine/store validation errors
            self._send_json({"error": str(exc)}, status=400)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json({"error": f"internal error: {exc}"}, status=500)

    def _debug_requests_payload(self) -> Dict:
        slowest = None
        raw = self.query.get("slowest", [None])[0]
        if raw is not None:
            try:
                slowest = max(1, int(raw))
            except ValueError:
                raise BadRequest(f"'slowest' must be an integer, got {raw!r}")
        return self.server.audit.snapshot(slowest=slowest)

    def _audit(self, name: str, latency_ms: float) -> None:
        """Record one audit-ring entry + access-log event per request."""
        status = self._response_status
        detail = getattr(self, "audit_detail", None) or {}
        audit: Optional[RequestAudit] = self.server.audit
        if audit is not None and name != "GET /debug/requests":
            audit.record(
                name,
                status,
                latency_ms,
                request_id=self.request_id,
                trace_id=self.trace_ctx.trace_id,
                **detail,
            )
        log_event(
            ACCESS_LOGGER,
            "http.access",
            request_id=self.request_id,
            trace_id=self.trace_ctx.trace_id,
            route=name,
            status=status,
            latency_ms=round(latency_ms, 3),
            **{k: v for k, v in detail.items() if not isinstance(v, (list, dict))},
        )

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except ConnectionError:
            # the peer reset a kept-alive connection, or server_close()
            # shut it down: the connection is over, not a server error
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._route("POST")


def ingest_route(engine: InferenceEngine, body: Dict) -> Dict:
    """``POST /ingest`` over one engine (the server's and a shard worker's)."""
    store = engine.store
    body = parse_ingest(body, store.num_entities, store.num_relations)
    if "events" in body:
        result = engine.ingest(body["events"], timestamp=body["timestamp"])
    else:
        result = engine.ingest(body["quads"])
    if body["flush"]:
        result["flushed"] = engine.flush()
        result["window_version"] = store.window_version
        result["pending_events"] = store.pending_events
    return result


class ServingHandler(BaseJSONHandler):
    """Single-process route table; state lives on ``server``."""

    # ------------------------------------------------------------------
    @property
    def engine(self) -> InferenceEngine:
        return self.server.engine

    def routes(self) -> Dict[str, object]:
        return {
            "GET /health": self._handle_health,
            "GET /stats": self._handle_stats,
            "POST /ingest": self._handle_ingest,
            "POST /predict": self._handle_predict,
        }

    # ------------------------------------------------------------------
    def _handle_health(self) -> Tuple[Dict, int]:
        return (
            {
                "status": "draining" if self.server.draining else "ok",
                "model": self.engine.model_key,
                "num_entities": self.engine.store.num_entities,
                "num_relations": self.engine.store.num_relations,
                "window_version": self.engine.store.window_version,
                "current_time": self.engine.store.current_time,
            },
            200,
        )

    def _handle_stats(self) -> Tuple[Dict, int]:
        return ({"server": self.server.stats_snapshot(), "engine": self.engine.stats()}, 200)

    def _handle_ingest(self) -> Tuple[Dict, int]:
        return ingest_route(self.engine, self._read_json()), 200

    def _handle_predict(self) -> Tuple[Dict, int]:
        store = self.engine.store
        queries, default_top_k, single = parse_predict(
            self._read_json(), store.num_entities, store.num_relations
        )
        if not single:
            results = self.engine.predict_many(queries, default_top_k=default_top_k)
            self.audit_detail.update(self.engine.last_batch_info or {})
            return {"results": results}, 200
        (query,) = queries
        predictions = self.engine.predict(
            query["subject"], query["relation"], top_k=query["top_k"], inverse=query["inverse"]
        )
        self.audit_detail.update(self.engine.last_batch_info or {})
        return (
            {
                "subject": query["subject"],
                "relation": query["relation"],
                "inverse": query["inverse"],
                "predictions": predictions,
            },
            200,
        )


def _engine_collector(engine: InferenceEngine, registry: MetricsRegistry):
    """Refresh the history-store gauges right before every ``/metrics`` render.

    The engine's caches and counters write their series on the
    registry themselves; only the store's live state needs reading here.
    """
    window_version = registry.gauge(
        "repro_window_version", "History-store window version (bumps per sealed snapshot)."
    )
    store_gauges = registry.gauge(
        "repro_store_events", "History-store event counts.", labelnames=("state",)
    )

    def collect() -> None:
        store = engine.store.stats()
        window_version.set(store["window_version"])
        store_gauges.labels(state="pending").set(store["pending_events"])
        store_gauges.labels(state="total").set(store["total_events"])
        store_gauges.labels(state="sealed_snapshots").set(store["sealed_snapshots"])

    return collect


def _ledger_collector(registry: MetricsRegistry):
    """Expose run-ledger record counts by kind on ``/metrics``.

    Reads the default ledger lazily at scrape time, cached on the
    file's (mtime, size) so an idle server costs one ``stat`` per
    scrape, not a re-parse.
    """
    rows = registry.gauge(
        "repro_run_ledger_records",
        "Records in the run ledger by kind.",
        labelnames=("kind",),
    )
    cache = {"stamp": None, "counts": {}}

    def collect() -> None:
        path = default_ledger_path()
        try:
            stat = os.stat(path)
            stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            return
        if stamp != cache["stamp"]:
            cache["counts"] = RunLedger(path).counts_by_kind()
            cache["stamp"] = stamp
        for kind, count in cache["counts"].items():
            rows.labels(kind=kind).set(count)

    return collect


class ServingServer(DrainableHTTPServer):
    """Drainable threading server carrying the engine."""

    def __init__(
        self,
        address,
        engine: InferenceEngine,
        verbose: bool = False,
        request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
    ):
        super().__init__(address, ServingHandler, verbose, request_log_entries)
        self.engine = engine
        self._collector = self.registry.register_collector(
            _engine_collector(engine, self.registry)
        )
        # health events + run-ledger counts render on /metrics even
        # before anything fires (families are created idempotently)
        health_counter(self.registry)
        self._ledger_collector = self.registry.register_collector(
            _ledger_collector(self.registry)
        )

    def server_close(self) -> None:
        self.registry.unregister_collector(self._collector)
        self.registry.unregister_collector(self._ledger_collector)
        super().server_close()


def create_server(
    engine: InferenceEngine,
    host: str = "127.0.0.1",
    port: int = 8420,
    verbose: bool = False,
    request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
) -> ServingServer:
    """Bind (but do not start) a serving frontend; ``port=0`` auto-picks."""
    return ServingServer(
        (host, port), engine, verbose=verbose, request_log_entries=request_log_entries
    )


def serve_in_thread(engine: InferenceEngine, host: str = "127.0.0.1", port: int = 0):
    """Start a server on a daemon thread; returns ``(server, thread)``.

    Convenience for tests and notebooks::

        server, thread = serve_in_thread(engine)
        ... urllib.request.urlopen(server.url + "/health") ...
        server.shutdown()
    """
    server = create_server(engine, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
