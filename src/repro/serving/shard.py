"""Entity-range decode workers for the sharded serving cluster.

A cluster worker owns one contiguous slice ``[lo, hi)`` of the entity
vocabulary.  It ingests the *full* event stream (history is global —
every shard needs the same windows and encoder states), but decodes
queries only against its own candidate slice through the global decode
tile grid (:func:`repro.core.execution.candidate_scores_range`), so the
scores it returns are bitwise-identical (float64) to the corresponding
columns of a single-process decode.

Pieces:

- :class:`EntityShard` / :func:`partition_entities` — the contiguous
  near-equal partition of ``[0, num_entities)``; shard ``i`` of ``n``
  is a pure function of ``(num_entities, n, i)``, so router and workers
  derive identical tables independently.
- :class:`ShardEngine` — an :class:`~repro.serving.engine.InferenceEngine`
  whose decode is restricted to the shard's range, plus a
  ``partial_topk`` entry point returning the shard-local canonical
  top-k (global entity ids) and a decode busy-time counter
  (``repro_shard_decode_seconds_total{shard,instance}``) that the
  scaling benchmark uses to measure per-worker compute.
- :class:`ShardWorkerServer` / :class:`ShardWorkerHandler` — the
  worker's HTTP face: the standard ``/health /stats /metrics /ingest``
  plus ``POST /decode`` for the router's scatter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.execution import topk_ranked
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, span, tracing_enabled
from repro.serving.audit import AUDIT_DEFAULT_CAPACITY
from repro.serving.engine import InferenceEngine
from repro.serving.server import BaseJSONHandler, DrainableHTTPServer, ingest_route
from repro.serving.store import OnlineHistoryStore
from repro.serving.validation import BadRequest, parse_predict


@dataclass(frozen=True)
class EntityShard:
    """One contiguous slice of the entity id space."""

    index: int
    num_shards: int
    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def as_dict(self) -> Dict[str, int]:
        return {
            "index": self.index,
            "num_shards": self.num_shards,
            "lo": self.lo,
            "hi": self.hi,
        }


def partition_entities(num_entities: int, num_shards: int) -> List[EntityShard]:
    """Split ``[0, num_entities)`` into ``num_shards`` contiguous ranges.

    The first ``num_entities % num_shards`` shards are one entity wider;
    shards beyond the vocabulary (more shards than entities) come back
    empty rather than failing, so tests can probe degenerate counts.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    base, rem = divmod(int(num_entities), int(num_shards))
    shards, lo = [], 0
    for i in range(num_shards):
        width = base + (1 if i < rem else 0)
        shards.append(EntityShard(index=i, num_shards=num_shards, lo=lo, hi=lo + width))
        lo += width
    return shards


class ShardEngine(InferenceEngine):
    """Inference engine that decodes only its entity shard.

    Identical to the base engine except :meth:`_score_range` returns the
    shard slice — the cached score vectors and the prediction-cache keys
    operate on shard-local score arrays whose columns are bitwise
    sub-arrays of the full decode.
    """

    def __init__(self, model, store: OnlineHistoryStore, shard: EntityShard, **kwargs):
        super().__init__(model, store, **kwargs)
        self.shard = shard
        registry = get_registry()
        labels = dict(shard=str(shard.index), instance=self.instance)
        self._decode_seconds = registry.counter(
            "repro_shard_decode_seconds_total",
            "Cumulative decode busy time per shard engine.",
            labelnames=("shard", "instance"),
        ).labels(**labels)
        self._decode_requests = registry.counter(
            "repro_shard_decode_requests_total",
            "Decode (scatter) requests served per shard engine.",
            labelnames=("shard", "instance"),
        ).labels(**labels)

    def _score_range(self) -> Tuple[int, int]:
        return self.shard.lo, self.shard.hi

    def partial_topk(
        self, queries: Sequence[Dict], default_top_k: int = 10
    ) -> List[Dict[str, object]]:
        """Shard-local canonical top-k per query, in global entity ids.

        Each query contributes its top ``min(k, shard width)`` — enough
        that the union over shards provably contains the global top-k
        (any entity in the global top-k ranks top-k within its own
        shard).  Scores are raw float64; the router merges with
        :func:`repro.core.execution.merge_topk`.
        """
        parsed = [
            (
                self._checked_pair(q["subject"], q["relation"], bool(q.get("inverse", False))),
                int(q.get("top_k", default_top_k)),
            )
            for q in queries
        ]
        started = time.perf_counter()
        with span("shard.decode", shard=self.shard.index, batch=len(parsed)):
            score_map, self._per_thread.batch_info = self._execute_batch(
                [pair for pair, _ in parsed]
            )
            rows = []
            for pair, k in parsed:
                ids, values = topk_ranked(score_map[pair], k, base=self.shard.lo)
                rows.append(
                    {"entities": ids.tolist(), "scores": values.tolist()}
                )
        self._decode_seconds.inc(time.perf_counter() - started)
        self._decode_requests.inc()
        return rows

    def stats(self) -> Dict[str, object]:
        base = super().stats()
        base["shard"] = self.shard.as_dict()
        base["decode_busy_s"] = round(self._decode_seconds.value, 6)
        base["decode_calls"] = int(self._decode_requests.value)
        return base


class ShardWorkerHandler(BaseJSONHandler):
    """Worker route table: base surface plus the scatter ``/decode``."""

    @property
    def engine(self) -> ShardEngine:
        return self.server.engine

    def routes(self):
        return {
            "GET /health": self._handle_health,
            "GET /stats": self._handle_stats,
            "POST /ingest": self._handle_ingest,
            "POST /decode": self._handle_decode,
        }

    def _handle_health(self):
        shard = self.engine.shard
        return (
            {
                "status": "draining" if self.server.draining else "ok",
                "role": "shard-worker",
                "model": self.engine.model_key,
                "shard": shard.as_dict(),
                "num_entities": self.engine.store.num_entities,
                "num_relations": self.engine.store.num_relations,
                "window_version": self.engine.store.window_version,
                "current_time": self.engine.store.current_time,
            },
            200,
        )

    def _handle_stats(self):
        return ({"server": self.server.stats_snapshot(), "engine": self.engine.stats()}, 200)

    def _handle_ingest(self):
        return ingest_route(self.engine, self._read_json()), 200

    def _handle_decode(self):
        body = self._read_json()
        if "queries" not in body:
            raise BadRequest("'queries' must be a non-empty list")
        store = self.engine.store
        queries, default_top_k, _ = parse_predict(body, store.num_entities, store.num_relations)
        rows = self.engine.partial_topk(queries, default_top_k=default_top_k)
        shard = self.engine.shard
        info = self.engine.last_batch_info
        self.audit_detail.update(info)
        payload = {
            "shard": shard.index,
            "lo": shard.lo,
            "hi": shard.hi,
            # the version these rows were decoded at; the store may
            # have sealed another snapshot since
            "window_version": info["window_version"],
            "results": rows,
        }
        if body.get("return_spans") and tracing_enabled():
            # Ship this request's spans (decode + the still-open
            # http.request on this thread) back to the router, which
            # adopts them into one merged cross-process trace.
            payload["spans"] = get_tracer().export_trace(
                self.trace_ctx.trace_id, process=f"worker-shard{shard.index}"
            )
        return payload, 200


class ShardWorkerServer(DrainableHTTPServer):
    """HTTP frontend of one decode worker."""

    def __init__(
        self,
        address,
        engine: ShardEngine,
        verbose: bool = False,
        request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
    ):
        super().__init__(address, ShardWorkerHandler, verbose, request_log_entries)
        self.engine = engine


def create_worker_server(
    engine: ShardEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
) -> ShardWorkerServer:
    """Bind (but do not start) a shard worker; ``port=0`` auto-picks."""
    return ShardWorkerServer(
        (host, port), engine, verbose=verbose, request_log_entries=request_log_entries
    )
