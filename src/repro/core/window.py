"""Prediction-window assembly: everything a HisRES forward pass needs.

The trainer walks the timeline; at each prediction timestamp it packages
the ``l`` most recent snapshot graphs, the merged inter-snapshot graphs,
the time deltas, the globally relevant graph G^H_t and the vocabulary
index into a :class:`HistoryWindow`.  The last two, and the window's
``facts``, are reads of one :class:`~repro.graphs.history.HistoryIndex`
that :meth:`WindowBuilder.absorb` feeds once per snapshot.

Graph builds are cached at the window level so they are paid once per
*distinct content*, not once per request:

- snapshot and merged graphs are keyed on a content fingerprint of their
  quads and survive :meth:`WindowBuilder.reset` — the trainer resets the
  builder every epoch while replaying the same timeline, so epochs 2..n
  reuse epoch 1's builds (and with them the compiled layouts memoized on
  each graph instance by ``repro.graphs.compiled``);
- merged graphs are cached per sliding window, so absorbing one new
  snapshot rebuilds only the merge windows that actually changed;
- globally relevant graphs are kept in an LRU keyed on the builder's
  history version plus the query-pair set, so repeated queries within
  one window version (ablation sweeps, repeated serving pair sets) reuse the
  materialised G^H_t.

A serving store never rewinds, so after each absorb it drops the graphs
its state can no longer ask for (:meth:`WindowBuilder.drop_unreachable_graphs`).

A window's content key splits the same way (:meth:`HistoryWindow.fingerprint`):
a history part every query set on one builder state shares, and a
query part over G^H_t and the vocabulary index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.history import HistoryFacts, HistoryIndex, VocabularyIndex
from repro.graphs.merge import merge_snapshots
from repro.graphs.snapshot import SnapshotGraph, build_snapshot, stable_array_digest
from repro.obs.lru import BoundedLRU


def _fingerprint(quads: np.ndarray) -> Tuple[int, int, int]:
    """Cheap, process-stable content key for one snapshot's quad array."""
    quads = np.ascontiguousarray(quads)
    t = int(quads[0, 3]) if len(quads) else -1
    return (t, quads.shape[0], stable_array_digest(quads))


@dataclass
class HistoryWindow:
    """Inputs for one prediction timestamp.

    Attributes:
        snapshots: the ``l`` most recent snapshot graphs, oldest first.
        merged: merged inter-snapshot graphs (sliding windows).
        deltas: ``t_pred - t_i`` per snapshot, parallel to ``snapshots``.
        global_graph: G^H_t, or None when the global encoder is off.
        vocabulary: the history vocabulary index over the window's
            distinct ``(s, r)`` query pairs (see
            :meth:`~repro.graphs.history.HistoryIndex.vocabulary`), or
            None when the builder does not track vocabulary (consumed by
            CyGNet, TiRGN, CENET).
        prediction_time: the timestamp being predicted.
        facts: every historical fact as global-id ``(subject, object)``
            rows plus the builder's history version (HGLS's long-term
            memory); scoped windows carry the full window's unchanged.
        local_nodes: sorted global entity ids when this window is an
            induced subgraph produced by :mod:`repro.graphs.sampler`
            (``local_nodes[i]`` is the global id of local entity ``i``),
            or None for a full-graph window.  Scoped windows carry graphs
            over the compacted local id space; encoders read them
            through :meth:`scope_entities`.
    """

    snapshots: List[SnapshotGraph]
    merged: List[SnapshotGraph]
    deltas: List[float]
    global_graph: Optional[SnapshotGraph]
    prediction_time: int
    vocabulary: Optional[VocabularyIndex] = None
    facts: Optional[HistoryFacts] = None
    local_nodes: Optional[np.ndarray] = None
    _fingerprint: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def is_scoped(self) -> bool:
        """True when this window is a sampler-induced subgraph."""
        return self.local_nodes is not None

    @property
    def num_local_entities(self) -> Optional[int]:
        return None if self.local_nodes is None else int(len(self.local_nodes))

    def scope_entities(self, matrix):
        """Restrict a full entity matrix/table to this window's scope.

        For full-graph windows this is the identity; for scoped windows
        it gathers the rows of the sampled closure (autodiff-safe, so
        gradients flow back to the gathered rows during sampled
        training).  Encoders call this on their initial entity table so
        one implementation serves both the full and the scoped path.
        """
        if self.local_nodes is None:
            return matrix
        return matrix.index_select(self.local_nodes)

    def fingerprint(self) -> tuple:
        """Content key over everything an encoder can read from the window.

        Two windows with the same fingerprint produce bitwise-identical
        encoder states (in eval mode), so the execution plane uses it —
        together with the model version — to key the
        :class:`~repro.core.execution.EncoderStateCache`.

        The key has two parts, ``(history, query)``:

        - :meth:`history_fingerprint` covers the snapshots, the merged
          graphs, the deltas, the facts' history version and
          ``local_nodes``: everything the query-independent half of an
          encoder reads;
        - the query part covers the globally relevant graph G^H_t and
          the vocabulary index, both built from the *query pairs*, so
          windows assembled for different query sets on one history
          share the history part and generally differ here — unless
          their G^H content coincides (e.g. pairs with no indexed
          history yield the same empty graph), which is exactly when
          sharing an encode is sound.  A vocabulary-only change (same
          graphs, different history behind the pairs) changes it too.

        Memoized per window instance; the per-graph content fingerprints
        are memoized per graph, so replayed timelines (which reuse
        cached graph instances) pay the hashing once.
        """
        if self._fingerprint is None:
            history = (
                tuple(g.content_fingerprint() for g in self.snapshots),
                tuple(g.content_fingerprint() for g in self.merged),
                tuple(float(d) for d in self.deltas),
                None if self.facts is None else self.facts.version,
                None
                if self.local_nodes is None
                else (int(len(self.local_nodes)), stable_array_digest(self.local_nodes)),
            )
            query = (
                None if self.global_graph is None else self.global_graph.content_fingerprint(),
                None
                if self.vocabulary is None
                else tuple((len(a), stable_array_digest(a)) for a in self.vocabulary),
            )
            self._fingerprint = (history, query)
        return self._fingerprint

    def history_fingerprint(self) -> tuple:
        """The query-independent part of :meth:`fingerprint`.

        Equal for every window one builder state assembles at one
        prediction time, whatever the query set; changed by every
        :meth:`WindowBuilder.absorb`; shared by two builders only when
        they absorbed the same history, older snapshots included.  Split
        encoders (HisRES, LogCL) cache their history state under it.
        """
        return self.fingerprint()[0]


class WindowBuilder:
    """Stateful walker that yields a :class:`HistoryWindow` per timestamp.

    Call :meth:`advance` with each snapshot's quads *in chronological
    order*; it returns the window for predicting that snapshot (from the
    history indexed so far) and then absorbs the snapshot into history.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        history_length: int = 4,
        granularity: int = 2,
        use_global: bool = True,
        global_max_history: Optional[int] = None,
        track_vocabulary: bool = False,
        cache_capacity: int = 4096,
    ):
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.history_length = history_length
        self.granularity = granularity
        self.use_global = use_global
        self.track_vocabulary = track_vocabulary
        self.cache_capacity = int(cache_capacity)
        # the rolling window: the l most recent snapshots, oldest first
        self._recent_quads: Deque[np.ndarray] = deque(maxlen=history_length)
        self._recent_graphs: Deque[SnapshotGraph] = deque(maxlen=history_length)
        self._recent_times: Deque[int] = deque(maxlen=history_length)
        self._recent_fps: Deque[Tuple[int, int, int]] = deque(maxlen=history_length)
        #: every absorbed fact, inverse facts included: G^H_t, the
        #: vocabulary index and the window's facts all read it
        self.history = HistoryIndex(max_history=global_max_history)
        # History version: advances with every absorb, and is
        # content-chained so two identical replays (epoch 1 vs epoch 2)
        # pass through the *same* version sequence — that is what lets
        # the version-keyed global-graph LRU hit across epochs.
        self._version: int = 0
        # Content-keyed caches; deliberately NOT cleared by reset() so
        # builds survive epoch boundaries.  A miss is a build.
        self._caches = {
            name: BoundedLRU(self.cache_capacity, cache=f"{name}_graph", owner="window")
            for name in ("snapshot", "merged", "global")
        }

    def reset(self) -> None:
        """Forget the rolling history (start of a new epoch/run).

        Graph caches survive: they are keyed on content fingerprints (or
        the content-chained version), so replaying the same timeline
        after a reset reuses every build from the previous pass.
        """
        self._recent_quads.clear()
        self._recent_graphs.clear()
        self._recent_times.clear()
        self._recent_fps.clear()
        self.history.reset()
        self._version = 0

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Content-chained history version (changes on every absorb)."""
        return self._version

    def cache_stats(self) -> Dict[str, int]:
        """Build/hit/entry counts of the window-level graph caches.

        A view over each cache's own series on the :mod:`repro.obs`
        metrics registry (also scraped by /metrics).
        """
        stats: Dict[str, int] = {}
        for name, cache in self._caches.items():
            view = cache.stats()
            stats[f"{name}_builds"] = view["misses"]
            stats[f"{name}_hits"] = view["hits"]
            stats[f"{name}_entries"] = view["entries"]
        return stats

    def _cached(self, name: str, key, build) -> SnapshotGraph:
        """The graph cached under ``key``, building it on a miss."""
        cache = self._caches[name]
        graph = cache.get(key)
        if graph is None:
            graph = build()
            cache.put(key, graph)
        return graph

    # ------------------------------------------------------------------
    def window_for(self, queries: np.ndarray, prediction_time: int) -> HistoryWindow:
        """Assemble the window for predicting ``queries`` at ``prediction_time``.

        ``queries`` must already include inverse queries (two-phase
        propagation) because the global graph keys on their (s, r) pairs.
        """
        snapshots = list(self._recent_graphs)
        merged = self._merged_windows()
        deltas = [float(prediction_time - t) for t in self._recent_times]
        global_graph = None
        if self.use_global:
            pairs = frozenset((int(q[0]), int(q[1])) for q in queries)
            key = (self._version, pairs, int(prediction_time))
            global_graph = self._cached(
                "global", key, lambda: self._global_graph(pairs, prediction_time)
            )
        vocabulary = None
        if self.track_vocabulary:
            queries = np.asarray(queries, dtype=np.int64)
            vocabulary = self.history.vocabulary(queries[:, 0], queries[:, 1])
        return HistoryWindow(
            snapshots=snapshots,
            merged=merged,
            deltas=deltas,
            global_graph=global_graph,
            prediction_time=prediction_time,
            vocabulary=vocabulary,
            facts=HistoryFacts(self._version, *self.history.facts()),
        )

    def _global_graph(self, pairs, prediction_time: int) -> SnapshotGraph:
        """G^H_t, subject -> object; the query set already holds the
        inverse pairs (two-phase propagation), so no inverse edges."""
        triples = self.history.triples(pairs, now=prediction_time)
        return SnapshotGraph(
            src=triples[:, 0],
            rel=triples[:, 1],
            dst=triples[:, 2],
            num_entities=self.num_entities,
            num_relations=2 * self.num_relations,
        )

    def _merge_spans(self) -> List[range]:
        """Positions of the snapshots in each sliding merge window."""
        n = len(self._recent_quads)
        if n == 0:
            return []
        if n < self.granularity:
            return [range(n)]
        return [range(i, i + self.granularity) for i in range(n - self.granularity + 1)]

    def _merged_windows(self) -> List[SnapshotGraph]:
        """Merged inter-snapshot graphs, one per sliding window, cached.

        Each window of ``granularity`` adjacent snapshots is cached on
        the member fingerprints, so absorbing one new snapshot only
        builds the windows that include it.
        """
        merged: List[SnapshotGraph] = []
        for span in self._merge_spans():
            key = tuple(self._recent_fps[i] for i in span)
            graph = self._cached(
                "merged",
                key,
                lambda: merge_snapshots(
                    [self._recent_quads[i] for i in span],
                    self.num_entities,
                    self.num_relations,
                ),
            )
            merged.append(graph)
        return merged

    def absorb(self, quads: np.ndarray) -> None:
        """Add a snapshot (raw+inverse quads) to the rolling history."""
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        if len(quads) == 0:
            return
        fp = _fingerprint(quads)
        graph = self._cached(
            "snapshot", fp, lambda: build_snapshot(quads, self.num_entities, self.num_relations)
        )
        self._version = hash((self._version, fp))
        self._recent_quads.append(quads)
        self._recent_graphs.append(graph)
        self._recent_times.append(int(quads[0, 3]))
        self._recent_fps.append(fp)
        # the history index keeps *everything*, with inverse facts, so
        # the inverse query pairs hit it too
        doubled = np.concatenate(
            [
                quads,
                np.stack(
                    [quads[:, 2], quads[:, 1] + self.num_relations, quads[:, 0], quads[:, 3]],
                    axis=1,
                ),
            ]
        )
        self.history.add_snapshot(doubled)

    def drop_unreachable_graphs(self) -> None:
        """Drop every cached graph this state can no longer ask for: all
        but the current window's and the current version's.  Only for a
        history that never rewinds; a trainer's epoch replays revisit
        earlier states and reuse their builds."""
        fps = self._recent_fps
        merged = {tuple(fps[i] for i in span) for span in self._merge_spans()}
        self._caches["snapshot"].retain(lambda key: key in fps)
        self._caches["merged"].retain(lambda key: key in merged)
        self._caches["global"].retain(lambda key: key[0] == self._version)

    @property
    def history_filled(self) -> bool:
        """Whether at least one snapshot of history exists."""
        return len(self._recent_quads) > 0

    @property
    def num_window_snapshots(self) -> int:
        """How many snapshots the rolling window currently holds (<= l)."""
        return len(self._recent_graphs)
