"""Cluster router: scatter ``/predict`` by entity shard, merge top-ks.

The router is the cluster's public face.  It speaks the exact same
HTTP surface as the single-process server (``/ingest /predict /health
/stats /metrics``), so clients cannot tell a cluster from one process —
except that a cluster keeps answering (with ``"partial": true``) when
a worker dies.

Mechanics:

- ``POST /ingest`` fans out to **all** workers (history is global) and
  records the body in an :class:`IngestJournal` so a restarted worker
  can be replayed back to the shared history state.
- ``POST /predict`` scatters the full query list to every live worker
  (each scores its own entity range), gathers shard-local canonical
  top-ks, and merges them with
  :func:`repro.core.execution.merge_topk` — bitwise-identical (float64)
  to the single-process answer because shards decode on the global tile
  grid and Python's JSON round-trips float64 exactly (``repr`` <->
  ``float``).
- A scatter leg that times out or errors is retried **once**; a second
  failure marks the worker dead (``on_failure`` tells the supervisor to
  restart it) and the response carries ``"partial": true`` plus the
  missing shard ranges instead of failing the request.

Per-shard observability: ``repro_cluster_requests_total{shard}``,
``repro_cluster_failures_total{shard}``, and scatter/gather latency
histograms ``repro_cluster_scatter_seconds`` /
``repro_cluster_gather_seconds``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.execution import merge_topk
from repro.obs.health import health_counter
from repro.obs.metrics import get_registry
from repro.obs.trace import TraceContext, get_tracer, span, tracing_enabled
from repro.serving.audit import AUDIT_DEFAULT_CAPACITY
from repro.serving.client import ServingClient, ServingError
from repro.serving.federation import ClusterMetricsFederator
from repro.serving.server import REQUEST_ID_HEADER, BaseJSONHandler, DrainableHTTPServer
from repro.serving.shard import EntityShard
from repro.serving.validation import BadRequest, parse_ingest, parse_predict


class IngestJournal:
    """Ordered record of every accepted ingest body.

    Replayed into a restarted worker so its history store converges to
    the same window (and window fingerprints — the state-tier keys) as
    its siblings.  Unbounded by design at this reproduction's scale;
    ``max_entries`` guards runaway streams by dropping the *oldest*
    entries (a restarted worker then diverges — surfaced via
    ``truncated`` in :meth:`stats`).
    """

    def __init__(self, max_entries: int = 100_000):
        self.max_entries = int(max_entries)
        self._entries: List[Dict] = []
        self._dropped = 0
        self._lock = threading.Lock()

    def append(self, body: Dict) -> None:
        with self._lock:
            self._entries.append(body)
            while len(self._entries) > self.max_entries:
                self._entries.pop(0)
                self._dropped += 1

    def entries(self) -> List[Dict]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "truncated": self._dropped > 0,
                "dropped": self._dropped,
            }


class WorkerRef:
    """A router-side handle on one shard worker."""

    def __init__(self, url: str, shard: EntityShard, timeout: float = 30.0):
        self.shard = shard
        self.alive = True
        self._lock = threading.Lock()
        self.set_url(url, timeout=timeout)

    def set_url(self, url: str, timeout: float = 30.0) -> None:
        previous = getattr(self, "client", None)
        if previous is not None:
            previous.close()
        self.url = url.rstrip("/")
        self.client = ServingClient(self.url, timeout=timeout)

    def as_dict(self) -> Dict[str, object]:
        return {"url": self.url, "alive": self.alive, "shard": self.shard.as_dict()}


class ClusterRouter:
    """Scatter/gather core, independent of the HTTP frontend.

    Args:
        workers: ``(url, shard)`` pairs covering ``[0, num_entities)``.
        timeout_s: per-leg scatter timeout (each leg retried once).
        on_failure: called with the dead :class:`WorkerRef` after the
            retry also fails — the supervisor hooks restarts in here.
    """

    def __init__(
        self,
        workers: Sequence[Tuple[str, EntityShard]],
        timeout_s: float = 30.0,
        on_failure: Optional[Callable[[WorkerRef], None]] = None,
    ):
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        self.timeout_s = float(timeout_s)
        self.on_failure = on_failure
        self.workers = [
            WorkerRef(url, shard, timeout=timeout_s) for url, shard in workers
        ]
        self.journal = IngestJournal()
        self._vocabulary: Optional[Tuple[int, int]] = None
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.workers), thread_name_prefix="scatter"
        )
        registry = get_registry()
        self._requests = registry.counter(
            "repro_cluster_requests_total",
            "Scatter legs issued per shard.",
            labelnames=("shard",),
        )
        self._failures = registry.counter(
            "repro_cluster_failures_total",
            "Scatter legs that failed (after retry) per shard.",
            labelnames=("shard",),
        )
        self._scatter_latency = registry.histogram(
            "repro_cluster_scatter_seconds",
            "Latency of individual scatter legs (successful).",
            labelnames=("shard",),
        )
        self._gather_latency = registry.histogram(
            "repro_cluster_gather_seconds",
            "End-to-end scatter+merge latency per routed request.",
            labelnames=("route",),
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._pool.shutdown(wait=False)
        for worker in self.workers:
            worker.client.close()

    def live_workers(self) -> List[WorkerRef]:
        return [w for w in self.workers if w.alive]

    def vocabulary(self) -> Tuple[int, int]:
        """``(num_entities, num_relations)``, read once from a worker's /health.

        The router validates request bodies against it before any
        scatter, exactly as a single-process server does.
        """
        if self._vocabulary is None:
            for worker in self.live_workers():
                try:
                    health = worker.client.health()
                except ServingError:
                    continue
                self._vocabulary = (int(health["num_entities"]), int(health["num_relations"]))
                break
            else:
                raise ServingError(503, "no shard worker is reachable")
        return self._vocabulary

    def revive(self, worker: WorkerRef, url: Optional[str] = None) -> None:
        """Put a restarted worker back into the scatter set."""
        if url is not None:
            worker.set_url(url, timeout=self.timeout_s)
        worker.alive = True

    def _call(
        self,
        worker: WorkerRef,
        path: str,
        body: Dict,
        ctx: Optional[TraceContext] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[Dict, float]:
        """One scatter leg: POST with a single retry, then mark dead.

        Runs on a scatter-pool thread, so the request thread's trace
        context (``ctx``) is re-activated here explicitly — thread-local
        span stacks do not cross the pool boundary.  The leg opens its
        own ``cluster.scatter`` span; the client injects its context as
        the ``traceparent`` header, so the worker's spans hang off this
        leg in the merged trace.  Returns ``(payload, leg_ms)``; raises
        the final error after marking the worker dead and notifying
        ``on_failure``.
        """
        shard_label = str(worker.shard.index)
        self._requests.labels(shard=shard_label).inc()
        headers = {REQUEST_ID_HEADER: request_id} if request_id else None
        last_error: Optional[Exception] = None
        leg_started = time.perf_counter()
        with get_tracer().activate(ctx):
            with span("cluster.scatter", shard=worker.shard.index, path=path):
                for attempt in (0, 1):
                    started = time.perf_counter()
                    try:
                        payload = worker.client.post(path, body, headers=headers)
                        self._scatter_latency.labels(shard=shard_label).observe(
                            time.perf_counter() - started
                        )
                        return payload, (time.perf_counter() - leg_started) * 1e3
                    except Exception as exc:
                        last_error = exc
                        if isinstance(exc, ServingError) and exc.status == 400:
                            raise  # our request is malformed; retry cannot help
        self._failures.labels(shard=shard_label).inc()
        worker.alive = False
        if self.on_failure is not None:
            try:
                self.on_failure(worker)
            except Exception:  # supervisor bugs must not kill routing
                pass
        raise last_error

    def _scatter(
        self, path: str, body: Dict, request_id: Optional[str] = None
    ) -> List[Tuple[WorkerRef, Optional[Dict], Dict]]:
        """POST ``body`` to every live worker; failed legs come back None.

        Returns ``(worker, payload_or_None, leg)`` triples where ``leg``
        is the audit-plane breakdown for that shard (latency, ok flag).
        """
        live = self.live_workers()
        ctx = get_tracer().current_context()
        futures = [
            (worker, self._pool.submit(self._call, worker, path, body, ctx, request_id))
            for worker in live
        ]
        results: List[Tuple[WorkerRef, Optional[Dict], Dict]] = []
        for worker, future in futures:
            leg: Dict = {"shard": worker.shard.index, "ok": True, "latency_ms": None}
            try:
                payload, leg_ms = future.result()
                leg["latency_ms"] = round(leg_ms, 3)
                results.append((worker, payload, leg))
            except Exception as exc:
                leg["ok"] = False
                if isinstance(exc, ServingError) and 400 <= exc.status < 500:
                    leg["rejected"] = str(exc)
                results.append((worker, None, leg))
        return results

    @staticmethod
    def _raise_unanswered(results, message: str) -> None:
        """No leg answered: a 4xx when every worker rejected the body
        (e.g. an out-of-order ingest), else a 503."""
        rejected = [leg.get("rejected") for _, _, leg in results]
        if rejected and all(rejected):
            raise BadRequest(rejected[0])
        raise ServingError(503, message)

    def _adopt_spans(self, results: List[Tuple[WorkerRef, Optional[Dict], Dict]]) -> None:
        """Stitch worker-returned span records into the router's tracer."""
        if not tracing_enabled():
            return
        tracer = get_tracer()
        for _, payload, _ in results:
            if payload:
                spans = payload.pop("spans", None)
                if spans:
                    tracer.adopt(spans)

    # ------------------------------------------------------------------
    def ingest(
        self,
        body: Dict,
        request_id: Optional[str] = None,
        detail: Optional[Dict] = None,
    ) -> Dict:
        """Fan an ingest body to all workers; journal it on success."""
        started = time.perf_counter()
        with span("router.ingest"):
            results = self._scatter("/ingest", body, request_id=request_id)
        self._gather_latency.labels(route="/ingest").observe(
            time.perf_counter() - started
        )
        ok = [r for _, r, _ in results if r is not None]
        missing = [w.shard.as_dict() for w, r, _ in results if r is None]
        if detail is not None:
            detail["shards"] = [leg for _, _, leg in results]
            if missing:
                detail["partial"] = True
        if not ok:
            self._raise_unanswered(results, "no worker accepted the ingest")
        self.journal.append(body)
        merged = dict(ok[0])
        if missing:
            merged["partial"] = True
            merged["missing_shards"] = missing
        return merged

    def predict(
        self,
        queries: Sequence[Dict],
        default_top_k: int = 10,
        request_id: Optional[str] = None,
        detail: Optional[Dict] = None,
    ) -> Dict:
        """Scatter the query list, merge per-shard top-ks into global top-ks.

        ``detail`` (the handler's audit dict) receives the per-shard
        latency breakdown; when tracing is on, workers return their
        decode spans in the ``/decode`` payload and they are adopted
        into the router's tracer here — one merged cross-process trace.
        """
        body = {"queries": list(queries), "top_k": int(default_top_k)}
        if tracing_enabled():
            body["return_spans"] = True
        started = time.perf_counter()
        with span("router.predict", queries=len(queries)):
            results = self._scatter("/decode", body, request_id=request_id)
            self._adopt_spans(results)
        answered = [(w, r) for w, r, _ in results if r is not None]
        missing = [w.shard.as_dict() for w, r, _ in results if r is None]
        if detail is not None:
            detail["shards"] = [leg for _, _, leg in results]
            if missing:
                detail["partial"] = True
        if not answered:
            self._raise_unanswered(results, "no shard worker is reachable")

        merged_rows = []
        for qi, query in enumerate(queries):
            k = int(query.get("top_k", default_top_k))
            partials = []
            for _, payload in answered:
                row = payload["results"][qi]
                partials.append(
                    (
                        np.asarray(row["entities"], dtype=np.int64),
                        np.asarray(row["scores"], dtype=np.float64),
                    )
                )
            ids, values = merge_topk(partials, k)
            merged_rows.append(
                {
                    "subject": int(query["subject"]),
                    "relation": int(query["relation"]),
                    "inverse": bool(query.get("inverse", False)),
                    "predictions": [
                        {"entity": int(e), "score": float(v), "rank": i + 1}
                        for i, (e, v) in enumerate(zip(ids, values))
                    ],
                }
            )
        self._gather_latency.labels(route="/predict").observe(
            time.perf_counter() - started
        )
        response: Dict = {"results": merged_rows}
        if missing:
            response["partial"] = True
            response["missing_shards"] = missing
        return response

    def health(self) -> Dict:
        """Aggregate worker healths (probed live, marks dead on error)."""
        workers = []
        for worker in self.workers:
            entry = worker.as_dict()
            if worker.alive:
                try:
                    entry["health"] = worker.client.health()
                except ServingError:
                    worker.alive = False
                    entry["alive"] = False
            workers.append(entry)
        live = sum(1 for w in self.workers if w.alive)
        status = "ok" if live == len(self.workers) else ("degraded" if live else "down")
        return {
            "role": "cluster-router",
            "status": status,
            "workers": workers,
            "live_workers": live,
            "num_shards": len(self.workers),
        }

    def stats(self) -> Dict[str, object]:
        return {
            "workers": [w.as_dict() for w in self.workers],
            "journal": self.journal.stats(),
        }


class RouterHandler(BaseJSONHandler):
    """Same public routes as the single-process server."""

    @property
    def router(self) -> ClusterRouter:
        return self.server.router

    def routes(self):
        return {
            "GET /health": self._handle_health,
            "GET /stats": self._handle_stats,
            "POST /ingest": self._handle_ingest,
            "POST /predict": self._handle_predict,
        }

    def _handle_health(self):
        payload = self.router.health()
        if self.server.draining:
            payload["status"] = "draining"
        return payload, 200

    def _handle_stats(self):
        return (
            {"server": self.server.stats_snapshot(), "cluster": self.router.stats()},
            200,
        )

    def _handle_ingest(self):
        try:
            body = parse_ingest(self._read_json(), *self.router.vocabulary())
            return (
                self.router.ingest(
                    body, request_id=self.request_id, detail=self.audit_detail
                ),
                200,
            )
        except ServingError as exc:
            return {"error": str(exc)}, 503

    def _handle_predict(self):
        try:
            queries, default_top_k, single = parse_predict(
                self._read_json(), *self.router.vocabulary()
            )
            response = self.router.predict(
                queries,
                default_top_k=default_top_k,
                request_id=self.request_id,
                detail=self.audit_detail,
            )
        except ServingError as exc:
            return {"error": str(exc)}, 503
        if single:
            row = dict(response["results"][0])
            for key in ("partial", "missing_shards"):
                if key in response:
                    row[key] = response[key]
            return row, 200
        return response, 200


class RouterServer(DrainableHTTPServer):
    """HTTP frontend owning a :class:`ClusterRouter`.

    The router's ``/metrics`` federates the cluster: a registered
    collector (:class:`~repro.serving.federation.ClusterMetricsFederator`)
    scrapes live workers on a TTL and re-exports aggregated
    ``repro_cluster_*`` families next to the router's own series, so one
    scrape describes the whole cluster.
    """

    def __init__(
        self,
        address,
        router: ClusterRouter,
        verbose: bool = False,
        request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
        metrics_ttl_s: float = 5.0,
    ):
        super().__init__(address, RouterHandler, verbose, request_log_entries)
        self.router = router
        health_counter(self.registry)
        self.federator = ClusterMetricsFederator(
            router, self.registry, ttl_s=metrics_ttl_s
        )
        self._federation_collector = self.registry.register_collector(
            self.federator.collect
        )

    def server_close(self) -> None:
        self.registry.unregister_collector(self._federation_collector)
        self.router.close()
        super().server_close()


def create_router_server(
    router: ClusterRouter,
    host: str = "127.0.0.1",
    port: int = 8420,
    verbose: bool = False,
    request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
    metrics_ttl_s: float = 5.0,
) -> RouterServer:
    """Bind (but do not start) the router frontend; ``port=0`` auto-picks."""
    return RouterServer(
        (host, port),
        router,
        verbose=verbose,
        request_log_entries=request_log_entries,
        metrics_ttl_s=metrics_ttl_s,
    )
