"""OnlineHistoryStore: streaming ingestion == from-scratch rebuild."""

import numpy as np
import pytest

from repro.core.config import WindowConfig
from repro.core.window import WindowBuilder
from repro.serving import OnlineHistoryStore


def _windows_equal(a, b):
    """Structural equality of two HistoryWindow objects."""
    assert len(a.snapshots) == len(b.snapshots)
    for ga, gb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(ga.src, gb.src)
        np.testing.assert_array_equal(ga.rel, gb.rel)
        np.testing.assert_array_equal(ga.dst, gb.dst)
    assert len(a.merged) == len(b.merged)
    for ga, gb in zip(a.merged, b.merged):
        np.testing.assert_array_equal(ga.src, gb.src)
        np.testing.assert_array_equal(ga.rel, gb.rel)
        np.testing.assert_array_equal(ga.dst, gb.dst)
    assert a.deltas == b.deltas
    assert a.prediction_time == b.prediction_time
    assert (a.global_graph is None) == (b.global_graph is None)
    if a.global_graph is not None:
        for field in ("src", "rel", "dst"):
            va = np.sort(getattr(a.global_graph, field))
            vb = np.sort(getattr(b.global_graph, field))
            np.testing.assert_array_equal(va, vb)
    assert (a.vocabulary is None) == (b.vocabulary is None)
    if a.vocabulary is not None:
        for va, vb in zip(a.vocabulary, b.vocabulary):
            np.testing.assert_array_equal(va, vb)


def _store_and_reference(track_vocabulary=False, history_length=3):
    kwargs = dict(
        history_length=history_length,
        granularity=2,
        use_global=True,
        track_vocabulary=track_vocabulary,
    )
    store = OnlineHistoryStore(25, 5, window_config=WindowConfig(**kwargs))
    reference = WindowBuilder(25, 5, **kwargs)
    return store, reference


class TestStreamingEquivalence:
    @pytest.mark.parametrize("track_vocabulary", [False, True])
    def test_event_by_event_matches_snapshot_rebuild(self, tiny_dataset, track_vocabulary):
        """Per-event ingestion must reach the exact WindowBuilder state."""
        store, reference = _store_and_reference(track_vocabulary=track_vocabulary)
        items = sorted(tiny_dataset.train.facts_by_time().items())[:8]
        queries = np.array([[s, r, 0, 0] for s in range(6) for r in range(5)],
                           dtype=np.int64)
        for t, quads in items:
            # prediction state before absorbing t must match
            window_a = store.window_for(queries, prediction_time=t)
            window_b = reference.window_for(queries, prediction_time=t)
            _windows_equal(window_a, window_b)
            # stream one event at a time vs. one absorb of the whole snapshot
            for row in quads:
                store.ingest(row[:3], timestamp=int(t))
            reference.absorb(quads)
            store.flush()
        assert store.stats()["sealed_snapshots"] == len(items)

    def test_rollover_on_time_advance_seals_previous_snapshot(self, tiny_dataset):
        store, reference = _store_and_reference()
        items = sorted(tiny_dataset.train.facts_by_time().items())[:4]
        # ingest without explicit flush: the NEXT timestamp seals the previous
        for t, quads in items:
            store.ingest(quads)
        for t, quads in items[:-1]:
            reference.absorb(quads)
        # last snapshot is still pending in the store
        queries = np.array([[0, 0, 0, 0]], dtype=np.int64)
        t_pred = int(items[-1][0])
        _windows_equal(
            store.window_for(queries, prediction_time=t_pred),
            reference.window_for(queries, prediction_time=t_pred),
        )
        assert store.pending_events == len(items[-1][1])

    def test_warm_up_matches_manual_replay(self, tiny_dataset):
        store, reference = _store_and_reference()
        absorbed = store.warm_up(tiny_dataset.train)
        for _, quads in sorted(tiny_dataset.train.facts_by_time().items()):
            reference.absorb(quads)
        assert absorbed == len(tiny_dataset.train.quads)
        queries = np.array([[1, 2, 0, 0], [3, 4, 0, 0]], dtype=np.int64)
        t_pred = store.current_time + 1
        _windows_equal(
            store.window_for(queries, prediction_time=t_pred),
            reference.window_for(queries, prediction_time=t_pred),
        )


class TestIngestSemantics:
    def test_version_bumps_only_on_rollover(self):
        store = OnlineHistoryStore(10, 3, window_config=WindowConfig(history_length=2))
        v0 = store.window_version
        store.ingest([[0, 1, 2]], timestamp=0)
        store.ingest([[1, 1, 3]], timestamp=0)  # same snapshot, no bump
        assert store.window_version == v0
        store.ingest([[2, 0, 1]], timestamp=1)  # time advance seals t=0
        assert store.window_version == v0 + 1
        assert store.flush()  # seals t=1
        assert store.window_version == v0 + 2
        assert not store.flush()  # nothing pending

    def test_multi_timestamp_batch(self):
        store = OnlineHistoryStore(10, 3)
        result = store.ingest([[0, 0, 1, 0], [1, 1, 2, 1], [2, 2, 3, 2]])
        assert result["accepted"] == 3
        assert result["rollovers"] == 2  # t=0 and t=1 sealed, t=2 open
        assert store.current_time == 2
        assert store.pending_events == 1

    def test_out_of_order_rejected(self):
        store = OnlineHistoryStore(10, 3)
        store.ingest([[0, 0, 1]], timestamp=5)
        store.flush()
        with pytest.raises(ValueError, match="out-of-order"):
            store.ingest([[0, 0, 1]], timestamp=5)  # already sealed
        store.ingest([[0, 0, 1]], timestamp=6)
        with pytest.raises(ValueError, match="out-of-order"):
            store.ingest([[0, 0, 1]], timestamp=5)  # older than open snapshot

    def test_validation(self):
        store = OnlineHistoryStore(10, 3)
        with pytest.raises(ValueError, match="subject"):
            store.ingest([[10, 0, 1]], timestamp=0)
        with pytest.raises(ValueError, match="relation"):
            store.ingest([[0, 3, 1]], timestamp=0)
        with pytest.raises(ValueError, match="object"):
            store.ingest([[0, 0, -1]], timestamp=0)
        with pytest.raises(ValueError, match="timestamp is required"):
            store.ingest([[0, 0, 1]])
        with pytest.raises(ValueError, match="events must be"):
            store.ingest([[0, 0]], timestamp=0)

    def test_window_respects_history_length(self):
        store = OnlineHistoryStore(10, 3, window_config=WindowConfig(history_length=2))
        for t in range(5):
            store.ingest([[t % 10, 0, (t + 1) % 10]], timestamp=t)
        store.flush()
        window = store.window_for(np.array([[0, 0, 0, 0]]), prediction_time=5)
        assert len(window.snapshots) == 2
        assert window.deltas == [2.0, 1.0]

    def test_reset_clears_state_but_advances_version(self):
        store = OnlineHistoryStore(10, 3)
        store.ingest([[0, 0, 1]], timestamp=0)
        store.flush()
        v = store.window_version
        store.reset()
        assert store.window_version > v
        assert store.current_time is None
        assert store.stats()["total_events"] == 0

    def test_stats_shape(self, tiny_dataset):
        store = OnlineHistoryStore(25, 5, window_config=WindowConfig(history_length=3))
        store.warm_up(tiny_dataset.train)
        stats = store.stats()
        assert stats["window_snapshots"] == 3
        assert stats["pending_events"] == 0
        assert stats["global_indexed_facts"] > 0
        assert stats["sealed_snapshots"] > 3


class TestGraphCacheBound:
    def test_rollovers_keep_only_live_graphs(self):
        """A store that rolls over 40 times holds only the graphs its
        current window can still ask for, and still equals a rebuild."""
        store, reference = _store_and_reference(history_length=2)
        rng = np.random.default_rng(0)
        queries = np.array([[s, r, 0, 0] for s in range(6) for r in range(5)], dtype=np.int64)
        for t in range(40):
            triples = np.stack(
                [rng.integers(0, 25, 12), rng.integers(0, 5, 12), rng.integers(0, 25, 12)], axis=1
            )
            store.ingest(triples, timestamp=t)
            store.flush()
            reference.absorb(np.concatenate([triples, np.full((12, 1), t)], axis=1))
            _windows_equal(
                store.window_for(queries, prediction_time=t + 1),
                reference.window_for(queries, prediction_time=t + 1),
            )
        caches = store.stats()["graph_caches"]
        # l = 2 snapshots, one merge window of granularity 2, and one
        # G^H for the current version and query set
        assert caches["snapshot_entries"] <= 2
        assert caches["merged_entries"] <= 1
        assert caches["global_entries"] <= 1
        # the offline builder keeps its builds for epoch replays
        assert reference.cache_stats()["snapshot_entries"] == 40
