"""Online history state for serving: streaming ingestion over a rolling window.

Offline evaluation rebuilds history by replaying a frozen timeline.  A
server cannot do that per request: events arrive continuously (often
several batches for the *same* timestamp) and predictions are requested
between arrivals.  :class:`OnlineHistoryStore` therefore maintains the
exact state a :class:`~repro.core.window.WindowBuilder` would reach —
the ``l`` most recent snapshot graphs, the merged inter-snapshot
graphs, and the ``(s, r)``-keyed history index behind G^H_t and the
vocabulary — **incrementally**:

- events for the current (open) timestamp are buffered append-only;
- when an event with a newer timestamp arrives (or :meth:`flush` is
  called), the buffered snapshot is *sealed*: built once, absorbed into
  the rolling window and the history index, and the ``window_version``
  is bumped so prediction caches keyed on it invalidate.  Cached graphs
  only older versions could ask for are dropped.

Prediction windows are assembled from sealed history only, mirroring
the training regime (predict timestamp ``t`` from ``G_{0:t-1}``).  A
from-scratch rebuild over the same sealed snapshots yields identical
windows — asserted in ``tests/serving/test_store.py``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import WindowConfig
from repro.core.window import HistoryWindow, WindowBuilder
from repro.data.dataset import SplitView
from repro.graphs.compiled import compiled_cache_stats


class OnlineHistoryStore:
    """Streaming wrapper around a rolling :class:`WindowBuilder`.

    Args:
        num_entities / num_relations: vocabulary sizes (base relations).
        window_config: how windows are assembled (must match training;
            None means ``WindowConfig()``).
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        window_config: Optional[WindowConfig] = None,
    ):
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.window_config = window_config or WindowConfig()
        self._builder = self.window_config.build(num_entities, num_relations)
        # guards every read and write of the history; reentrant, so a
        # reader may hold it across ``window_version`` and
        # :meth:`window_for` to get a window and the version it is of
        self.lock = threading.RLock()
        self._pending: List[np.ndarray] = []
        self._pending_time: Optional[int] = None
        self._last_sealed_time: Optional[int] = None
        self._window_version = 0
        self._sealed_snapshots = 0
        self._total_events = 0

    # ------------------------------------------------------------------
    @property
    def window_version(self) -> int:
        """Monotone counter, bumped on every snapshot rollover."""
        return self._window_version

    @property
    def current_time(self) -> Optional[int]:
        """Latest timestamp seen (pending or sealed); None when empty."""
        if self._pending_time is not None:
            return self._pending_time
        return self._last_sealed_time

    @property
    def pending_events(self) -> int:
        return sum(len(chunk) for chunk in self._pending)

    @property
    def history_filled(self) -> bool:
        return self._builder.history_filled

    # ------------------------------------------------------------------
    def _validate(self, quads: np.ndarray) -> None:
        if len(quads) == 0:
            return
        if quads[:, 0].min() < 0 or quads[:, 0].max() >= self.num_entities:
            raise ValueError("subject out of range")
        if quads[:, 2].min() < 0 or quads[:, 2].max() >= self.num_entities:
            raise ValueError("object out of range")
        if quads[:, 1].min() < 0 or quads[:, 1].max() >= self.num_relations:
            raise ValueError("relation out of range (base relation ids only)")

    def _seal_locked(self) -> bool:
        """Absorb the buffered snapshot into the rolling window."""
        if not self._pending:
            return False
        quads = np.concatenate(self._pending) if len(self._pending) > 1 else self._pending[0]
        self._builder.absorb(quads)
        # the store never rewinds: graphs of older versions are dead
        self._builder.drop_unreachable_graphs()
        self._last_sealed_time = self._pending_time
        self._pending = []
        self._pending_time = None
        self._window_version += 1
        self._sealed_snapshots += 1
        return True

    def ingest(self, events, timestamp: Optional[int] = None) -> Dict[str, object]:
        """Absorb a batch of streamed events.

        Args:
            events: ``(n, 4)`` quadruples, or ``(n, 3)`` triples with a
                shared ``timestamp``.  Timestamps must be non-decreasing
                across *all* ingest calls; events inside one call may
                span several timestamps (processed in order).
            timestamp: overrides / supplies the time column.

        Returns:
            summary dict: accepted events, rollovers triggered, current
            time, pending buffer size, and the new window version.
        """
        events = np.asarray(events)
        if events.size and events.dtype.kind not in "iu":
            # never truncate (0.5 -> 0) or wrap (2**70) an id or timestamp
            raise ValueError(f"events must be integers, got dtype {events.dtype}")
        events = events.astype(np.int64, copy=False)
        if events.ndim == 1 and events.size in (3, 4):
            events = events.reshape(1, -1)
        if events.ndim != 2 or events.shape[1] not in (3, 4):
            raise ValueError("events must be (n, 3) triples or (n, 4) quadruples")
        if events.shape[1] == 3:
            if timestamp is None:
                raise ValueError("timestamp is required for (n, 3) triple events")
            quads = np.concatenate(
                [events, np.full((len(events), 1), int(timestamp), dtype=np.int64)],
                axis=1,
            )
        else:
            quads = events.copy()
            if timestamp is not None:
                quads[:, 3] = int(timestamp)
        self._validate(quads)

        rollovers = 0
        with self.lock:
            if len(quads):
                tmin = int(quads[:, 3].min())
                if self._pending_time is not None:
                    if tmin < self._pending_time:
                        raise ValueError(
                            f"out-of-order event: t={tmin} is older than the "
                            f"open snapshot at t={self._pending_time}"
                        )
                elif self._last_sealed_time is not None and tmin <= self._last_sealed_time:
                    raise ValueError(
                        f"out-of-order event: t={tmin} is not newer than the "
                        f"last sealed snapshot at t={self._last_sealed_time}"
                    )
            if len(quads):
                order = np.argsort(quads[:, 3], kind="stable")
                quads = quads[order]
                for t in np.unique(quads[:, 3]):
                    chunk = quads[quads[:, 3] == t]
                    t = int(t)
                    if self._pending_time is not None and t > self._pending_time:
                        rollovers += int(self._seal_locked())
                    self._pending.append(chunk)
                    self._pending_time = t
                self._total_events += len(quads)
            return {
                "accepted": int(len(quads)),
                "rollovers": rollovers,
                "current_time": self.current_time,
                "pending_events": self.pending_events,
                "window_version": self._window_version,
            }

    def flush(self) -> bool:
        """Seal the open snapshot now (e.g. end of a warm-up replay).

        Returns True when a snapshot was actually sealed.
        """
        with self.lock:
            return self._seal_locked()

    def warm_up(self, history: SplitView, max_timestamps: Optional[int] = None) -> int:
        """Replay a split's snapshots chronologically; returns events absorbed.

        The final snapshot is flushed so the whole split is queryable
        immediately.
        """
        items = sorted(history.facts_by_time().items())
        if max_timestamps is not None:
            items = items[:max_timestamps]
        absorbed = 0
        with self.lock:
            for t, quads in items:
                self.ingest(quads, timestamp=int(t))
                absorbed += len(quads)
            self.flush()
        return absorbed

    def reset(self) -> None:
        """Forget all history (window version keeps increasing)."""
        with self.lock:
            self._builder.reset()
            self._pending = []
            self._pending_time = None
            self._last_sealed_time = None
            self._window_version += 1
            self._sealed_snapshots = 0
            self._total_events = 0

    # ------------------------------------------------------------------
    def window_for(
        self, queries: np.ndarray, prediction_time: Optional[int] = None
    ) -> HistoryWindow:
        """Assemble the prediction window from sealed history.

        ``prediction_time`` defaults to one step past the latest sealed
        snapshot (the standard extrapolation setting).
        """
        with self.lock:
            if prediction_time is None:
                base = self._last_sealed_time
                prediction_time = (base + 1) if base is not None else 0
            return self._builder.window_for(queries, prediction_time=int(prediction_time))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self.lock:
            return {
                "window_version": self._window_version,
                "current_time": self.current_time,
                "sealed_snapshots": self._sealed_snapshots,
                "window_snapshots": self._builder.num_window_snapshots,
                "pending_events": self.pending_events,
                "total_events": self._total_events,
                "global_indexed_pairs": self._builder.history.num_pairs,
                "global_indexed_facts": self._builder.history.num_facts,
                # Window-level graph-build caches plus the process-wide
                # compiled-layout counters: hits here mean requests are
                # reusing graph builds/layouts instead of re-deriving
                # them per forward pass.
                "graph_caches": dict(
                    self._builder.cache_stats(),
                    compiled_builds=compiled_cache_stats()["builds"],
                    compiled_hits=compiled_cache_stats()["hits"],
                ),
            }
