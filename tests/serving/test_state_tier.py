"""Shared encoder-state tier: round-trip, single-flight, fallback."""

import os
import threading

import numpy as np
import pytest

from repro.baselines import build_model
from repro.core.config import WindowConfig
from repro.serving import (
    OnlineHistoryStore,
    SharedEncoderStateStore,
    TieredStateCache,
)


@pytest.fixture
def window(tiny_dataset):
    store = OnlineHistoryStore(
        tiny_dataset.num_entities,
        tiny_dataset.num_relations,
        window_config=WindowConfig(history_length=2),
    )
    store.warm_up(tiny_dataset.train)
    queries = np.zeros((1, 4), dtype=np.int64)
    return store.window_for(queries)


@pytest.fixture
def model(tiny_dataset):
    return build_model(
        "regcn", tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8
    )


class _CountingModel:
    """Wraps a model to count live encodes (split protocol preserved)."""


    def __init__(self, model):
        self._model = model
        self.encodes = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def encode(self, window):
        self.encodes += 1
        return self._model.encode(window)


class TestRoundTrip:
    def test_store_load_bitwise(self, tmp_path, model, window):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t")
        state = model.encode(window)
        key = ("regcn", 0, window.fingerprint())
        assert tier.store(key, state)
        loaded = tier.load(key)
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded.entity_matrix.data, state.entity_matrix.data
        )
        np.testing.assert_array_equal(
            loaded.relation_matrix.data, state.relation_matrix.data
        )
        assert loaded.entity_matrix.data.dtype == np.float64
        assert loaded.prediction_time == state.prediction_time

    @pytest.mark.parametrize("key", ["cygnet", "xerte"])
    def test_int_aux_states_round_trip_bitwise(self, tmp_path, tiny_dataset, key):
        """Vocabulary-index and walk-edge states survive the tier bitwise
        and decode to the same scores as the live state."""
        model = build_model(key, tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8)
        model.eval()
        store = OnlineHistoryStore(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            window_config=WindowConfig(history_length=2, use_global=False,
                                       track_vocabulary=True),
        )
        store.warm_up(tiny_dataset.train)
        queries = np.array([[0, 1, 0, 0], [3, 2, 0, 0], [5, 6, 0, 0]], dtype=np.int64)
        window = store.window_for(queries)
        with model.inference_mode():
            state = model.encode(window)
        assert state.int_aux
        tier = SharedEncoderStateStore(str(tmp_path), owner="t")
        state_key = (key, model.version, window.fingerprint())
        assert tier.store(state_key, state)
        loaded = tier.load(state_key)
        assert len(loaded.aux) == len(state.aux)
        assert len(loaded.int_aux) == len(state.int_aux)
        for ours, theirs in zip(state.aux, loaded.aux):
            assert np.array_equal(ours.data, theirs.data)
        for ours, theirs in zip(state.int_aux, loaded.int_aux):
            assert theirs.dtype == np.int64 and np.array_equal(ours, theirs)
        with model.inference_mode():
            live = model.decode(state, queries).data
            reloaded = model.decode(loaded, queries).data
        assert np.array_equal(live, reloaded)

    def test_load_missing_key(self, tmp_path):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t")
        assert tier.load(("nope", 0, 123)) is None

    def test_digest_collision_degrades_to_miss(self, tmp_path, model, window):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t")
        key = ("regcn", 0, window.fingerprint())
        tier.store(key, model.encode(window))
        # same file path forged for a different key must not serve
        other = ("regcn", 1, window.fingerprint())
        os.rename(tier.path_for(key), tier.path_for(other))
        assert tier.load(other) is None

    def test_corrupt_file_is_a_miss(self, tmp_path, model, window):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t")
        key = ("regcn", 0, window.fingerprint())
        tier.store(key, model.encode(window))
        with open(tier.path_for(key), "wb") as handle:
            handle.write(b"not an npz")
        assert tier.load(key) is None


class TestLocking:
    def test_acquire_release_cycle(self, tmp_path):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t")
        key = ("m", 0, 1)
        assert tier.try_acquire(key)
        assert not tier.try_acquire(key)  # held
        tier.release(key)
        assert tier.try_acquire(key)

    def test_stale_lock_is_broken(self, tmp_path):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t", lock_stale_s=0.0)
        key = ("m", 0, 1)
        assert tier.try_acquire(key)
        # age 0 > stale 0 is false; force the mtime into the past
        past = os.path.getmtime(tier._lock_path(key)) - 10
        os.utime(tier._lock_path(key), (past, past))
        assert tier.try_acquire(key)  # broke the stale lock and re-claimed

    def test_wait_for_returns_published_state(self, tmp_path, model, window):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t", lock_timeout_s=5.0)
        key = ("regcn", 0, window.fingerprint())
        assert tier.try_acquire(key)
        state = model.encode(window)

        def publish():
            tier.store(key, state)
            tier.release(key)

        timer = threading.Timer(0.05, publish)
        timer.start()
        try:
            waited = tier.wait_for(key)
        finally:
            timer.join()
        assert waited is not None
        np.testing.assert_array_equal(
            waited.entity_matrix.data, state.entity_matrix.data
        )

    def test_wait_for_gives_up_on_timeout(self, tmp_path):
        tier = SharedEncoderStateStore(str(tmp_path), owner="t")
        key = ("m", 0, 1)
        assert tier.try_acquire(key)  # never published, never released
        assert tier.wait_for(key, timeout=0.05) is None


class TestTieredCache:
    def test_second_cache_hits_tier_without_encoding(self, tmp_path, model, window):
        counting = _CountingModel(model)
        first = TieredStateCache(
            SharedEncoderStateStore(str(tmp_path), owner="a"), owner="a"
        )
        second = TieredStateCache(
            SharedEncoderStateStore(str(tmp_path), owner="b"), owner="b"
        )
        s1 = first.get_or_encode(counting, window, model_key="regcn")
        assert counting.encodes == 1
        assert first.tier.stats()["events"]["publish"] == 1
        s2 = second.get_or_encode(counting, window, model_key="regcn")
        assert counting.encodes == 1  # tier hit, no second encode
        assert second.tier.stats()["events"]["hit"] == 1
        np.testing.assert_array_equal(s1.entity_matrix.data, s2.entity_matrix.data)

    def test_memory_hit_never_touches_tier(self, tmp_path, model, window):
        cache = TieredStateCache(
            SharedEncoderStateStore(str(tmp_path), owner="a"), owner="a"
        )
        cache.get_or_encode(model, window, model_key="regcn")
        events_before = cache.tier.stats()["events"]
        cache.get_or_encode(model, window, model_key="regcn")
        assert cache.hits == 1
        assert cache.tier.stats()["events"] == events_before

    def test_lock_loser_falls_back_to_local_encode(self, tmp_path, model, window):
        counting = _CountingModel(model)
        tier = SharedEncoderStateStore(str(tmp_path), owner="a", lock_timeout_s=0.05)
        cache = TieredStateCache(tier, owner="a")
        # an unrelated process "holds" the single-flight lock and stalls
        key = cache._key(counting, "regcn", window.fingerprint())
        assert tier.try_acquire(key)
        state = cache.get_or_encode(counting, window, model_key="regcn")
        assert state is not None
        assert counting.encodes == 1  # encoded locally despite losing the lock
        assert tier.stats()["events"]["fallback"] == 1

    def test_stats_include_tier(self, tmp_path, model, window):
        cache = TieredStateCache(
            SharedEncoderStateStore(str(tmp_path), owner="a"), owner="a"
        )
        cache.get_or_encode(model, window, model_key="regcn")
        stats = cache.stats()
        assert stats["tier"]["entries"] == 1
        assert stats["tier"]["events"]["publish"] == 1


class TestCounters:
    def test_same_owner_stores_keep_separate_counts(self, tmp_path):
        a, b = (SharedEncoderStateStore(str(tmp_path), owner="same") for _ in range(2))
        a.count("hit")
        a.count("hit")
        b.count("miss")
        assert a.instance != b.instance
        assert (a.stats()["events"]["hit"], a.stats()["events"]["miss"]) == (2, 0)
        assert (b.stats()["events"]["hit"], b.stats()["events"]["miss"]) == (0, 1)


class TestDiskBound:
    def test_ingest_ticks_leave_at_most_two_states(self, tmp_path, tiny_dataset, model):
        """Each tick publishes one state; only it and its predecessor stay."""
        store = OnlineHistoryStore(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            window_config=WindowConfig(history_length=2),
        )
        store.warm_up(tiny_dataset.train)
        cache = TieredStateCache(SharedEncoderStateStore(str(tmp_path), owner="d"), owner="d")
        queries = np.zeros((1, 4), dtype=np.int64)
        # a lock and a sibling's half-written file are not published states
        (tmp_path / "state-0.npz.lock").write_bytes(b"")
        (tmp_path / "state-0.npz.99.tmp.npz").write_bytes(b"")
        start = store.current_time + 1
        keys = []
        for tick in range(6):
            store.ingest([[tick, 0, tick + 1]], timestamp=start + tick)
            store.flush()
            window = store.window_for(queries)
            cache.get_or_encode(model, window, model_key="regcn")
            keys.append(cache._key(model, "regcn", window.fingerprint()))
            published = [p for p in os.listdir(tmp_path) if p.endswith(".npz")
                         and ".tmp." not in p]
            assert len(published) == min(tick + 1, 2)
        assert cache.tier.stats()["events"]["publish"] == 6
        assert cache.tier.load(keys[-1]) is not None
        assert cache.tier.load(keys[-2]) is not None
        assert cache.tier.load(keys[-3]) is None
        assert {"state-0.npz.lock", "state-0.npz.99.tmp.npz"} <= set(os.listdir(tmp_path))


class TestTieredSplitEncoder:
    def test_only_history_state_crosses_the_tier(self, tmp_path, tiny_dataset):
        """A sibling worker loads the published history state for a new
        query set and runs only its query stage; query-stage states are
        never published, and both answers equal a fresh encode bitwise."""
        model = build_model(
            "hisres", tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8
        )
        model.eval()
        store = OnlineHistoryStore(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            window_config=WindowConfig(history_length=2),
        )
        store.warm_up(tiny_dataset.train)
        first = store.window_for(np.array([[0, 1, 0, 0], [2, 0, 0, 0]], dtype=np.int64))
        second = store.window_for(np.array([[3, 2, 0, 0], [4, 1, 0, 0]], dtype=np.int64))
        assert first.fingerprint() != second.fingerprint()
        a, b = (
            TieredStateCache(SharedEncoderStateStore(str(tmp_path), owner=o), owner=o)
            for o in ("split-a", "split-b")
        )
        states = [a.get_or_encode(model, first, "hisres"),
                  b.get_or_encode(model, second, "hisres")]
        assert a.stats()["encodes"] == {"full": 0, "history": 1, "query": 1}
        assert b.stats()["encodes"] == {"full": 0, "history": 0, "query": 1}
        assert b.tier.stats()["events"]["hit"] == 1
        assert a.tier.stats()["entries"] == 1  # the history state only
        for window, state in zip((first, second), states):
            with model.inference_mode():
                fresh = model.encode(window)
            assert np.array_equal(state.entity_matrix.data, fresh.entity_matrix.data)
            assert np.array_equal(state.relation_matrix.data, fresh.relation_matrix.data)
