"""Online inference engine: checkpoint in, top-k out.

:class:`InferenceEngine` glues a registered model to an
:class:`~repro.serving.store.OnlineHistoryStore` and adds what a server
needs that the offline stack does not have: a **prediction cache** —
score vectors keyed on ``(model, s, r, window_version)``; a hit skips
the forward pass entirely, and the cache is cleared when the window
version (or the model version) advances, since a rolling store never
asks for an old version again.

Every request — a single ``predict``, a multi-query ``predict_many``,
a shard's ``partial_topk`` — is answered by one call of
:meth:`InferenceEngine._execute_batch` on the caller's thread with that
request's own pairs, so a single query is decoded alone and its answer
never depends on which other requests arrived with it.  Concurrent cold
requests for one pair still run one forward pass: the second re-checks
the prediction cache once it holds the model lock.

Beneath the per-pair prediction cache sits the **encoder-state cache**
(:class:`repro.core.execution.EncoderStateCache`): a prediction-cache
miss still reuses the expensive part of the encode whenever the history
is unchanged.  For HisRES and LogCL, whose G^H_t stage reads the query
pairs, distinct cold pair sets on one window version share one history
state and each new pair set pays only that stage (a few percent of the
encode) plus the decode; every other model shares one whole encoder
state per window content.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import WindowConfig
from repro.core.execution import (
    EncoderStateCache,
    ExecutionPlan,
    TimelineBatcher,
    TimelineStep,
    topk_ranked,
)
from repro.nn.serialization import load_checkpoint, read_checkpoint_metadata
from repro.obs.lru import BoundedLRU
from repro.obs.metrics import get_registry, new_instance
from repro.obs.trace import span
from repro.serving.store import OnlineHistoryStore


def load_served_model(
    path: str, graph_cache_entries: Optional[int] = None, **overrides
) -> Tuple[object, OnlineHistoryStore, Dict]:
    """Checkpoint -> ``(model, store, metadata)`` for a serving engine.

    The checkpoint metadata must carry ``model`` (registry key),
    ``num_entities`` and ``num_relations`` (``dim`` defaults to 32); the
    ``window`` sub-dict restores the training-time window configuration.
    ``overrides`` replace individual window keys (e.g.
    ``history_length=8``); ``graph_cache_entries`` sets the store's
    WindowBuilder graph-cache LRU capacity (the window-config
    ``cache_entries`` field).
    """
    from repro.baselines import build_model

    if graph_cache_entries is not None:
        overrides.setdefault("cache_entries", int(graph_cache_entries))
    meta = read_checkpoint_metadata(path)
    required = ("model", "num_entities", "num_relations")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ValueError(
            f"checkpoint {path!r} lacks serving metadata {missing}; "
            "re-save it with `repro.cli train --save` or pass a metadata "
            "dict with model/num_entities/num_relations"
        )
    num_entities, num_relations = int(meta["num_entities"]), int(meta["num_relations"])
    model = build_model(meta["model"], num_entities, num_relations, dim=int(meta.get("dim", 32)))
    load_checkpoint(model, path)
    store = OnlineHistoryStore(
        num_entities,
        num_relations,
        window_config=WindowConfig.from_dict(meta.get("window"), **overrides),
    )
    return model, store, meta


class InferenceEngine:
    """Serve top-k object predictions for ``(s, r, ?, t)`` queries.

    Args:
        model: any model speaking the encode/decode protocol
            (:class:`~repro.core.hisres.HisRES`, every registered
            baseline).
        store: the online history state (shared with ingestion).
        model_key: registry key, used in cache keys and ``/stats``.
        cache_entries: per-pair prediction LRU capacity (0 disables).
        state_cache_entries: encoder-state cache capacity (0 disables);
            sits beneath the prediction cache, keyed on window content.
        state_cache: pre-built encoder-state cache to use instead of
            constructing one — the cluster injects a
            :class:`~repro.serving.state_tier.TieredStateCache` here so
            worker replicas consult the shared on-disk tier before
            encoding.  Overrides ``state_cache_entries``.
    """

    def __init__(
        self,
        model,
        store: OnlineHistoryStore,
        model_key: str = "model",
        cache_entries: int = 4096,
        metadata: Optional[Dict] = None,
        state_cache_entries: int = 8,
        state_cache: Optional[EncoderStateCache] = None,
    ):
        self.model = model
        self.store = store
        self.model_key = model_key
        self.metadata = dict(metadata or {})
        # process-unique label of this engine's counter series
        self.instance = new_instance("engine")
        self.cache = BoundedLRU(cache_entries, cache="prediction", owner="serving")
        # (model.version, window_version) the prediction cache holds;
        # the lock also guards the max-batch-size gauge's compare-and-set
        self._cache_versions: Tuple[int, int] = (-1, -1)
        self._cache_lock = threading.Lock()
        if state_cache is not None:
            self.state_cache = state_cache
        else:
            self.state_cache = (
                EncoderStateCache(capacity=state_cache_entries, owner="serving")
                if state_cache_entries
                else None
            )
        self.plan = ExecutionPlan(model, cache=self.state_cache, model_key=model_key)
        # every decode runs through the batched timeline plane so
        # serving shares the evaluator's blocked tile-grid decode and
        # its observability
        self._timeline = TimelineBatcher(self.plan, owner="serving")
        registry = get_registry()
        self._queries_counter = registry.counter(
            "repro_engine_queries_served_total",
            "Queries answered by the engine.",
            labelnames=("instance",),
        ).labels(instance=self.instance)
        self._forward_counter = registry.counter(
            "repro_engine_predict_calls_total",
            "Model forward passes executed.",
            labelnames=("instance",),
        ).labels(instance=self.instance)
        self._batches = registry.counter(
            "repro_batcher_batches_total",
            "Query batches the engine answered.",
            labelnames=("instance",),
        ).labels(instance=self.instance)
        self._max_batch_size = registry.gauge(
            "repro_batcher_max_batch_size",
            "Largest query batch the engine answered so far.",
            labelnames=("instance",),
        ).labels(instance=self.instance)
        # "how was this request's batch answered", per request thread,
        # for the audit plane (see last_batch_info)
        self._per_thread = threading.local()
        self._model_lock = threading.Lock()
        self.model.eval()

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        cache_entries: int = 4096,
        state_cache_entries: int = 8,
        graph_cache_entries: Optional[int] = None,
        **overrides,
    ) -> "InferenceEngine":
        """Build an engine from a ``repro.cli train --save`` checkpoint.

        Model, store and metadata come from :func:`load_served_model`;
        ``graph_cache_entries`` is named apart from the prediction-cache
        ``cache_entries`` argument above.
        """
        model, store, meta = load_served_model(path, graph_cache_entries, **overrides)
        return cls(
            model,
            store,
            model_key=meta["model"],
            cache_entries=cache_entries,
            metadata=meta,
            state_cache_entries=state_cache_entries,
        )

    # ------------------------------------------------------------------
    def ingest(self, events, timestamp: Optional[int] = None) -> Dict[str, object]:
        """Stream events into the history store."""
        with span("engine.ingest"):
            return self.store.ingest(events, timestamp=timestamp)

    def flush(self) -> bool:
        """Seal the open snapshot so it becomes visible to predictions."""
        return self.store.flush()

    # ------------------------------------------------------------------
    def _score_range(self) -> Tuple[int, int]:
        """Candidate entity range this engine decodes over.

        The base engine owns the whole vocabulary; a cluster
        :class:`~repro.serving.shard.ShardEngine` overrides this with
        its contiguous slice.  Both go through the same tile-grid decode
        so overlapping columns are bitwise-identical.
        """
        return 0, self.store.num_entities

    def _cache_key(self, pair: Tuple[int, int], version: int) -> Tuple:
        """Prediction-cache key: (model, model.version, s, r, window_version).

        ``model.version`` participates so a hot-reload of new weights
        invalidates stale score vectors even when the history window —
        and therefore ``window_version`` — has not moved.
        """
        return (self.model_key, self.model.version) + pair + (version,)

    def _drop_superseded(self, version: int) -> None:
        """Clear the prediction cache once the window or model version
        advances: its keys carry both, so older entries can never hit
        again.  Versions only grow, so a batch that read an older
        version never clears newer entries."""
        versions = (self.model.version, version)
        with self._cache_lock:
            if versions <= self._cache_versions:
                return
            self._cache_versions = versions
        self.cache.clear()

    @property
    def last_batch_info(self) -> Optional[Dict[str, object]]:
        """How the calling thread's most recent request was answered.

        Each HTTP request runs on its own handler thread and is answered
        by its own :meth:`_execute_batch` call, so concurrent requests
        each record their own ``encode_mode``.
        """
        return getattr(self._per_thread, "batch_info", None)

    def _cached(self, pairs, version: int, results: Dict, lookup) -> List[Tuple[int, int]]:
        """Fill ``results`` from the prediction cache through ``lookup``
        (``cache.get`` or ``cache.peek``); return the pairs it lacks."""
        missing = []
        for pair in pairs:
            scores = lookup(self._cache_key(pair, version))
            if scores is None:
                missing.append(pair)
            else:
                results[pair] = scores
        return missing

    def _execute_batch(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[Dict[Tuple[int, int], np.ndarray], Dict[str, object]]:
        """Answer one request's (s, r) pairs: prediction-cache hits, then
        one forward pass for every distinct pair still uncached.

        The only way the engine answers, and the only place it counts
        queries and batches.  Every pair is answered at one window
        version, read under the store lock together with the window the
        misses are scored on, and the scores are cached under it.
        Returns the per-pair scores and the batch's info (encode mode,
        batch size, pairs decoded, window version).
        """
        distinct = list(dict.fromkeys(pairs))
        version = self.store.window_version
        self._drop_superseded(version)
        self._queries_counter.inc(len(pairs))
        self._batches.inc()
        with self._cache_lock:
            if len(pairs) > self._max_batch_size.value:
                self._max_batch_size.set(len(pairs))
        results: Dict[Tuple[int, int], np.ndarray] = {}
        todo = self._cached(distinct, version, results, self.cache.get)
        if todo:
            lo, hi = self._score_range()
            with span("engine.predict_batch", batch=len(pairs), misses=len(todo)):
                with self._model_lock:
                    with self.store.lock:
                        if self.store.window_version != version:
                            # a snapshot sealed since the lookup above:
                            # answer every pair at the new version
                            version = self.store.window_version
                            self._drop_superseded(version)
                            results.clear()
                            todo = distinct
                        # single flight: a request that held the lock while
                        # this one waited may have scored these pairs already
                        todo = self._cached(todo, version, results, self.cache.peek)
                        if todo:
                            queries = np.zeros((len(todo), 4), dtype=np.int64)
                            queries[:, :2] = todo
                            window = self.store.window_for(queries)
                    if todo:
                        scores = self._blocked_scores(window, queries, lo, hi)
                        self._forward_counter.inc()
                        for pair, row in zip(todo, scores):
                            results[pair] = row
                            self.cache.put(self._cache_key(pair, version), row)
        return results, {
            "encode_mode": "full" if todo else "cached",
            "batch": len(pairs),
            "cache_misses": len(todo),
            "window_version": version,
        }

    # ------------------------------------------------------------------
    def _blocked_scores(self, window, queries: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """One-step timeline walk: serving decodes through the same
        blocked tile-grid plane as the evaluator, so sharded and
        single-process scores stay bitwise sub-arrays of each other."""
        step = TimelineStep(int(window.prediction_time), window, queries)
        for _, rows, _ in self._timeline.run([step], entities=True, lo=lo, hi=hi):
            return np.asarray(rows)
        raise RuntimeError("timeline batcher yielded no rows")

    def reload_weights(self, path: str) -> Dict[str, object]:
        """Hot-swap model weights from a checkpoint without restarting.

        ``load_checkpoint`` bumps ``model.version``, so every
        prediction-cache and encoder-state-cache entry keyed on the old
        version dies naturally — even if ``window_version`` is
        unchanged (the regression this fixes: identical window, new
        weights, stale cached scores).
        """
        with self._model_lock:
            load_checkpoint(self.model, path)
            self.model.eval()
            return {
                "reloaded": path,
                "model_version": self.model.version,
            }

    def _checked_pair(self, subject: int, relation: int, inverse: bool) -> Tuple[int, int]:
        """Validate and map to the doubled relation space."""
        subject, relation = int(subject), int(relation)
        rel = relation + self.store.num_relations if inverse else relation
        if not (0 <= subject < self.store.num_entities):
            raise ValueError(f"subject {subject} out of range")
        if not (0 <= rel < 2 * self.store.num_relations):
            raise ValueError(f"relation {relation} out of range")
        return subject, rel

    @staticmethod
    def _top_k(scores: np.ndarray, top_k: int) -> List[Dict[str, object]]:
        ids, values = topk_ranked(scores, top_k)
        return [
            {"entity": int(e), "score": float(v), "rank": i + 1}
            for i, (e, v) in enumerate(zip(ids, values))
        ]

    def scores_for(self, subject: int, relation: int, inverse: bool = False) -> np.ndarray:
        """Full score vector over entities, decoded alone on a cache miss."""
        pair = self._checked_pair(subject, relation, inverse)
        score_map, self._per_thread.batch_info = self._execute_batch([pair])
        return score_map[pair]

    def predict(
        self,
        subject: int,
        relation: int,
        top_k: int = 10,
        inverse: bool = False,
    ) -> List[Dict[str, object]]:
        """Top-k objects for one ``(s, r, ?)`` query.

        ``inverse=True`` asks for subjects of ``(?, r, subject)`` via
        the doubled relation space.
        """
        return self._top_k(self.scores_for(subject, relation, inverse), top_k)

    def predict_many(self, queries: Sequence[Dict], default_top_k: int = 10) -> List[Dict]:
        """Answer a list of query dicts with ONE batched forward pass.

        Each query: ``{"subject": s, "relation": r, "top_k"?: k,
        "inverse"?: bool}``.  The whole list is deduplicated and scored
        in a single batched decode (modulo cache hits).
        """
        parsed = [
            (
                self._checked_pair(q["subject"], q["relation"], bool(q.get("inverse", False))),
                int(q.get("top_k", default_top_k)),
                q,
            )
            for q in queries
        ]
        pairs = [pair for pair, _, _ in parsed]
        score_map, self._per_thread.batch_info = self._execute_batch(pairs)
        return [
            {
                "subject": int(q["subject"]),
                "relation": int(q["relation"]),
                "inverse": bool(q.get("inverse", False)),
                "predictions": self._top_k(score_map[pair], k),
            }
            for pair, k, q in parsed
        ]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        queries = int(self._queries_counter.value)
        batches = int(self._batches.value)
        return {
            "model": self.model_key,
            "queries_served": queries,
            "predict_calls": int(self._forward_counter.value),
            "cache": self.cache.stats(),
            "state_cache": None if self.state_cache is None else self.state_cache.stats(),
            "batching": {
                "batches": batches,
                "batched_queries": queries,
                "max_batch_size": int(self._max_batch_size.value),
                "mean_batch_size": round(queries / batches if batches else 0.0, 3),
            },
            "store": self.store.stats(),
        }
