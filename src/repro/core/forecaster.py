"""Online forecasting API: stream events in, get ranked predictions out.

Wraps a trained model plus a rolling :class:`WindowBuilder` so
deployment code never touches graphs or windows directly::

    forecaster = Forecaster(model, num_entities=..., num_relations=...)
    forecaster.warm_up(dataset.train)            # replay history
    forecaster.observe(todays_events, timestamp=t)
    ranking = forecaster.predict(subject=12, relation=3, top_k=5)

The forecaster tracks the current timestamp, accepts out-of-band
snapshots in order, and exposes checkpointing of the underlying model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import WindowConfig
from repro.core.execution import (
    EncoderStateCache,
    ExecutionPlan,
    TimelineBatcher,
    TimelineStep,
)
from repro.core.window import WindowBuilder
from repro.data.dataset import SplitView
from repro.nn.serialization import load_checkpoint, save_checkpoint


@dataclass
class Prediction:
    """One ranked candidate."""

    entity: int
    score: float
    rank: int


class Forecaster:
    """Stateful wrapper for step-ahead TKG prediction.

    Args:
        model: any model speaking the encode/decode protocol.
        num_entities / num_relations: vocabulary sizes (base relations).
        window_config: how windows are assembled (must match training;
            None means ``WindowConfig()``).
        state_cache_entries: capacity of the encoder-state cache used
            by :meth:`predict_batch` (0 disables it).
    """

    def __init__(
        self,
        model,
        num_entities: int,
        num_relations: int,
        window_config: Optional[WindowConfig] = None,
        state_cache_entries: int = 8,
    ):
        self.model = model
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.window_config = window_config or WindowConfig()
        self._builder = self.window_config.build(num_entities, num_relations)
        cache = (
            EncoderStateCache(capacity=state_cache_entries, owner="forecaster")
            if state_cache_entries
            else None
        )
        self.plan = ExecutionPlan(model, cache=cache)
        self._now: Optional[int] = None
        self.last_timeline_stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    @property
    def current_time(self) -> Optional[int]:
        """Latest observed timestamp (None before any observation)."""
        return self._now

    @property
    def window_builder(self) -> WindowBuilder:
        """The underlying rolling-history builder (for diagnostics)."""
        return self._builder

    def reset(self) -> None:
        """Forget all history."""
        self._builder.reset()
        self._now = None

    def warm_up(self, history: SplitView, max_timestamps: Optional[int] = None) -> None:
        """Replay a split's snapshots in chronological order."""
        items = sorted(history.facts_by_time().items())
        if max_timestamps is not None:
            items = items[:max_timestamps]
        for t, quads in items:
            self.observe(quads, timestamp=t)

    def observe(self, quads: np.ndarray, timestamp: Optional[int] = None) -> None:
        """Absorb one snapshot of events.

        ``quads`` is (n, 4); when ``timestamp`` is given it overrides
        the quads' own time column (useful for live feeds).  Snapshots
        must arrive in non-decreasing time order.
        """
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4).copy()
        if len(quads) == 0:
            return
        if timestamp is not None:
            quads[:, 3] = int(timestamp)
        t = int(quads[0, 3])
        if self._now is not None and t < self._now:
            raise ValueError(f"snapshot at t={t} is older than current time {self._now}")
        self._builder.absorb(quads)
        self._now = t

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_queries(queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.int64)
        if queries.ndim != 2 or queries.shape[1] < 2:
            raise ValueError("queries must be (n, >=2) of (subject, relation, ...)")
        if queries.shape[1] < 3:
            padded = np.zeros((len(queries), 4), dtype=np.int64)
            padded[:, :2] = queries[:, :2]
            queries = padded
        return queries

    def predict_batch(
        self, queries: np.ndarray, prediction_time: Optional[int] = None
    ) -> np.ndarray:
        """Score all entities for (s, r) queries.

        Args:
            queries: (n, >=2) array of (s, r[, o, t]); relation ids may
                use the doubled space for inverse queries.
            prediction_time: defaults to one step after the last
                observation.
        Returns:
            (n, num_entities) score matrix.
        """
        queries = self._normalize_queries(queries)
        if prediction_time is None:
            prediction_time = (self._now + 1) if self._now is not None else 0
        window = self._builder.window_for(queries, prediction_time=int(prediction_time))
        return self.plan.entity_scores(window, queries)

    def predict_timeline(self, requests: Iterable[Tuple]) -> List[np.ndarray]:
        """Score a chronological sequence of query batches in one batched walk.

        The backtesting/replay shape: between observations the rolling
        window does not move, so consecutive requests share a window
        fingerprint and the :class:`~repro.core.execution.TimelineBatcher`
        scores them as one blocked decode per group instead of one
        forward pass per request.

        Args:
            requests: iterable of ``(queries, prediction_time)`` or
                ``(queries, prediction_time, observe_quads)`` tuples in
                non-decreasing time order; when ``observe_quads`` is
                given they are absorbed *after* that step is assembled
                (the step still sees only the past).
        Returns:
            one ``(n_i, num_entities)`` score matrix per request, in
            order.  :attr:`last_timeline_stats` holds the group
            accounting of the walk.
        """

        def steps():
            for request in requests:
                queries, prediction_time = request[0], request[1]
                observe_quads = request[2] if len(request) > 2 else None
                queries = self._normalize_queries(queries)
                if prediction_time is None:
                    prediction_time = (self._now + 1) if self._now is not None else 0
                window = self._builder.window_for(
                    queries, prediction_time=int(prediction_time)
                )
                yield TimelineStep(int(prediction_time), window, queries)
                if observe_quads is not None and len(observe_quads):
                    self.observe(observe_quads, timestamp=int(prediction_time))

        batcher = TimelineBatcher(
            self.plan, num_entities=self.num_entities, owner="forecaster"
        )
        scores = [entity for _, entity, _ in batcher.run(steps(), entities=True)]
        self.last_timeline_stats = dict(batcher.last_stats)
        return scores

    def predict(
        self,
        subject: int,
        relation: int,
        top_k: int = 10,
        inverse: bool = False,
        prediction_time: Optional[int] = None,
    ) -> List[Prediction]:
        """Ranked object candidates for one (s, r, ?) query."""
        rel = relation + self.num_relations if inverse else relation
        scores = self.predict_batch(
            np.array([[subject, rel]]), prediction_time=prediction_time
        )[0]
        order = np.argsort(scores)[::-1][:top_k]
        return [
            Prediction(entity=int(e), score=float(scores[e]), rank=i + 1)
            for i, e in enumerate(order)
        ]

    # ------------------------------------------------------------------
    def save(self, path: str, metadata: Optional[Dict] = None) -> None:
        """Checkpoint the underlying model (history is *not* saved —
        replay it with :meth:`warm_up` on restore)."""
        meta = dict(metadata or {})
        meta.setdefault("num_entities", self.num_entities)
        meta.setdefault("num_relations", self.num_relations)
        meta.setdefault("window", self.window_config.to_dict())
        save_checkpoint(self.model, path, metadata=meta)

    def load(self, path: str) -> Dict:
        """Restore model weights from :meth:`save` output."""
        return load_checkpoint(self.model, path)
