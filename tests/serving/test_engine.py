"""InferenceEngine: checkpoint loading, caching, concurrent requests."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines import build_model
from repro.nn.serialization import save_checkpoint
from repro.serving import (
    InferenceEngine,
    OnlineHistoryStore,
    ServingClient,
    create_worker_server,
)
from repro.serving.cluster import build_shard_engine


def _checkpoint(tmp_path, key="distmult", dim=8, num_entities=25, num_relations=5,
                window=None):
    model = build_model(key, num_entities, num_relations, dim=dim)
    path = str(tmp_path / f"{key}.npz")
    save_checkpoint(model, path, metadata={
        "format": 1,
        "model": key,
        "num_entities": num_entities,
        "num_relations": num_relations,
        "dim": dim,
        "window": window or {"history_length": 2, "granularity": 2,
                             "use_global": False, "track_vocabulary": False},
    })
    return model, path


class TestFromCheckpoint:
    def test_builds_model_and_store(self, tmp_path):
        model, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        assert engine.model_key == "distmult"
        assert engine.store.num_entities == 25
        assert engine.store.num_relations == 5
        # weights actually restored
        for (_, a), (_, b) in zip(
            sorted(model.named_parameters()), sorted(engine.model.named_parameters())
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_window_overrides(self, tmp_path):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, history_length=7)
        assert engine.store._builder.history_length == 7

    @pytest.mark.parametrize("typo", [{"history_lenght": 7}, {"batch_window_s": 0.0}])
    def test_unknown_override_is_a_type_error(self, tmp_path, typo):
        # metadata is read leniently, a caller's override is not
        _, path = _checkpoint(tmp_path)
        with pytest.raises(TypeError, match=next(iter(typo))):
            InferenceEngine.from_checkpoint(path, **typo)

    def test_graph_cache_entries_override(self, tmp_path):
        _, path = _checkpoint(tmp_path, key="regcn", dim=16)
        engine = InferenceEngine.from_checkpoint(path, graph_cache_entries=9)
        assert engine.store._builder.cache_capacity == 9

    def test_missing_metadata_is_a_clear_error(self, tmp_path):
        model = build_model("distmult", 5, 2, dim=4)
        path = str(tmp_path / "bare.npz")
        save_checkpoint(model, path)  # no serving metadata
        with pytest.raises(ValueError, match="serving metadata"):
            InferenceEngine.from_checkpoint(path)


class TestPredict:
    def test_topk_shape_and_order(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        predictions = engine.predict(0, 1, top_k=5)
        assert len(predictions) == 5
        assert [p["rank"] for p in predictions] == [1, 2, 3, 4, 5]
        scores = [p["score"] for p in predictions]
        assert scores == sorted(scores, reverse=True)

    def test_matches_raw_model_scores(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        queries = np.zeros((1, 4), dtype=np.int64)
        queries[0, 0], queries[0, 1] = 3, 2
        window = engine.store.window_for(queries)
        expected = np.asarray(engine.model.predict_entities(window, queries))[0]
        np.testing.assert_allclose(engine.scores_for(3, 2), expected)

    def test_inverse_uses_doubled_relation_space(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        direct = engine.predict(0, 1, top_k=3, inverse=False)
        inverse = engine.predict(0, 1, top_k=3, inverse=True)
        assert direct != inverse

    def test_validates_ranges(self, tmp_path):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        with pytest.raises(ValueError, match="subject"):
            engine.predict(99, 0)
        with pytest.raises(ValueError, match="relation"):
            engine.predict(0, 10)  # 2*num_relations == 10 is out of range

    def test_hisres_end_to_end(self, tmp_path, tiny_dataset):
        """The flagship model serves through the same path (global graph on)."""
        _, path = _checkpoint(
            tmp_path, key="hisres", dim=8,
            window={"history_length": 3, "granularity": 2,
                    "use_global": True, "track_vocabulary": False},
        )
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        predictions = engine.predict(1, 0, top_k=4)
        assert len(predictions) == 4
        assert all(np.isfinite(p["score"]) for p in predictions)


class TestCache:
    def test_repeat_query_hits_cache(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        engine.predict(0, 1)
        calls = engine.stats()["predict_calls"]
        engine.predict(0, 1)
        assert engine.stats()["predict_calls"] == calls
        assert engine.cache.hits >= 1

    def test_rollover_invalidates(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        engine.predict(0, 1)
        calls = engine.stats()["predict_calls"]
        t = engine.store.current_time + 1
        engine.ingest([[0, 1, 2]], timestamp=t)
        engine.flush()  # rollover -> new window_version
        engine.predict(0, 1)
        assert engine.stats()["predict_calls"] == calls + 1

    def test_hot_reload_invalidates_same_window_version(
        self, tmp_path, tiny_dataset
    ):
        # regression: the cache key once ignored model.version, so a
        # weight reload with an unchanged window served stale scores
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        before = engine.predict(0, 1, top_k=5)
        window_version = engine.store.window_version
        fresh = build_model("distmult", 25, 5, dim=8)
        new_path = str(tmp_path / "retrained.npz")
        save_checkpoint(fresh, new_path)
        info = engine.reload_weights(new_path)
        assert info["model_version"] > 0
        assert engine.store.window_version == window_version  # no rollover
        after = engine.predict(0, 1, top_k=5)
        assert after != before  # new weights, not the cached response
        # and the answer matches an engine that never saw the old weights
        control = InferenceEngine(
            fresh, engine.store, model_key="distmult"
        )
        assert after == control.predict(0, 1, top_k=5)

    def test_predict_many_single_forward_pass(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        queries = [{"subject": s, "relation": r} for s in range(4) for r in range(3)]
        results = engine.predict_many(queries, default_top_k=2)
        assert len(results) == 12
        assert engine.stats()["predict_calls"] == 1
        assert all(len(r["predictions"]) == 2 for r in results)


class TestSupersededVersions:
    def test_cache_holds_only_current_version_after_rollovers(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        t = engine.store.current_time
        for step in range(6):
            engine.predict_many([{"subject": s, "relation": 1} for s in range(4)])
            t += 1
            engine.ingest([[step, 0, step + 1]], timestamp=t)
            engine.flush()
        engine.predict_many([{"subject": 0, "relation": 1}, {"subject": 5, "relation": 2}])
        version = engine.store.window_version
        keys = list(engine.cache)
        assert len(keys) == 2
        assert all(key[-1] == version for key in keys)

    def test_older_version_batch_never_clears_newer_entries(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        engine.predict(0, 1)
        old_version = engine.store.window_version
        engine.ingest([[0, 1, 2]], timestamp=engine.store.current_time + 1)
        engine.flush()
        engine.predict(0, 1)  # cached under the new version
        calls = engine.stats()["predict_calls"]
        engine._drop_superseded(old_version)  # a batch that read the old version
        engine.predict(0, 1)
        assert engine.stats()["predict_calls"] == calls


class TestWindowVersionRace:
    """A snapshot sealed while a request is in flight: the request answers
    at the version of the window it decoded, caches under that version
    only, and reports it."""

    @staticmethod
    def _seal_next_snapshot(engine):
        engine.ingest([[0, 1, 2]], timestamp=engine.store.current_time + 1)
        assert engine.flush()

    def test_flush_while_waiting_for_the_model_lock(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        old = engine.store.window_version
        answer = {}

        def ask():
            answer["scores"] = engine.scores_for(2, 1)
            answer["info"] = engine.last_batch_info

        with engine._model_lock:
            asker = threading.Thread(target=ask)
            asker.start()
            # counted: the request has read the version it looks up
            deadline = time.monotonic() + 30
            while engine.stats()["queries_served"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            self._seal_next_snapshot(engine)
        asker.join(timeout=60)
        assert not asker.is_alive()
        new = engine.store.window_version
        assert new == old + 1
        assert [key[-1] for key in engine.cache] == [new]
        assert answer["info"]["window_version"] == new
        control = InferenceEngine(engine.model, engine.store, model_key="distmult")
        np.testing.assert_array_equal(answer["scores"], control.scores_for(2, 1))

    def test_concurrent_flushes_every_answer_matches_its_version(self, tmp_path, tiny_dataset):
        """Stress: readers (more than cores) under a short switch interval
        while a writer seals snapshots; every answer must equal a fresh
        engine's answer at the window version the request reports.  RE-GCN
        reads the history, so its scores move with every sealed snapshot."""
        _, path = _checkpoint(tmp_path, key="regcn")
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        base, start = engine.store.window_version, engine.store.current_time
        steps = [[[i % 25, i % 5, (3 * i) % 25]] for i in range(6)]
        pairs = [(s, s % 5) for s in range(8)]
        answers, failures = [], []
        done = threading.Event()

        def read():
            try:
                while not done.is_set():
                    for pair in pairs:
                        scores = engine.scores_for(*pair)
                        answers.append((engine.last_batch_info["window_version"], pair, scores))
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        def write():
            try:
                for i, events in enumerate(steps):
                    engine.ingest(events, timestamp=start + 1 + i)
                    engine.flush()
                    time.sleep(0.005)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            threads.append(threading.Thread(target=write))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        versions = range(base, base + len(steps) + 1)
        assert {version for version, _, _ in answers} <= set(versions)
        reference = InferenceEngine.from_checkpoint(path)
        reference.store.warm_up(tiny_dataset.train)
        for version in versions:
            if version > base:
                i = version - base - 1
                reference.ingest(steps[i], timestamp=start + 1 + i)
                reference.flush()
            assert reference.store.window_version == version
            want = {pair: reference.scores_for(*pair) for pair in pairs}
            for _, pair, scores in (a for a in answers if a[0] == version):
                np.testing.assert_array_equal(scores, want[pair])

    def test_shard_decode_reply_reports_the_decoded_version(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = build_shard_engine(path, shard_index=0, num_shards=2)
        engine.store.warm_up(tiny_dataset.train)
        decoded_at = engine.store.window_version
        blocked_scores = engine._blocked_scores

        def decode_then_seal(*args):
            rows = blocked_scores(*args)
            self._seal_next_snapshot(engine)  # after the decode, before the reply
            return rows

        engine._blocked_scores = decode_then_seal
        server = create_worker_server(engine, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            reply = ServingClient(server.url).post(
                "/decode", {"queries": [{"subject": 2, "relation": 1}]}
            )
        finally:
            server.shutdown()
            server.server_close()
        assert engine.store.window_version == decoded_at + 1
        assert reply["window_version"] == decoded_at


class TestSplitEncoderServing:
    def test_cold_pair_sets_share_one_history_encode(self, tmp_path, tiny_dataset):
        """Two cold pair sets on one window version: one history encode,
        two query-stage encodes, scores bitwise those of an engine
        without a state cache."""
        _, path = _checkpoint(
            tmp_path, key="hisres", dim=8,
            window={"history_length": 3, "granularity": 2,
                    "use_global": True, "track_vocabulary": False},
        )
        engine = InferenceEngine.from_checkpoint(path)
        control = InferenceEngine.from_checkpoint(
            path, state_cache_entries=0
        )
        assert control.state_cache is None
        for e in (engine, control):
            e.store.warm_up(tiny_dataset.train)
        version = engine.store.window_version
        for pairs in ([(0, 1), (2, 0)], [(3, 2), (4, 1)]):
            queries = [{"subject": s, "relation": r, "top_k": 25} for s, r in pairs]
            ours = engine.predict_many(queries)
            theirs = control.predict_many(queries)
            assert [r["predictions"] for r in ours] == [r["predictions"] for r in theirs]
        assert engine.store.window_version == version
        assert engine.state_cache.stats()["encodes"] == {"full": 0, "history": 1, "query": 2}
        assert engine.state_cache.misses == 1 and engine.state_cache.hits == 1


class TestMicroBatcher:
    """Concurrent requests.  There is no micro-batcher any more (the class
    keeps its name so existing test ids stay stable): each request is
    answered by its own ``_execute_batch`` call on the caller's thread."""

    def test_concurrent_singles_match_each_pair_asked_alone(self, tmp_path, tiny_dataset):
        # HisRES builds G^H from the decoded pairs, so a single request
        # co-batched with others would get a different answer
        _, path = _checkpoint(
            tmp_path, key="hisres", dim=8,
            window={"history_length": 3, "granularity": 2,
                    "use_global": True, "track_vocabulary": False},
        )
        pairs = [(i, i % 5) for i in range(6)]
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        barrier = threading.Barrier(len(pairs))
        answers = {}

        def ask(pair):
            barrier.wait()
            answers[pair] = engine.scores_for(*pair)

        threads = [threading.Thread(target=ask, args=(pair,)) for pair in pairs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        alone = InferenceEngine.from_checkpoint(path)
        alone.store.warm_up(tiny_dataset.train)
        for pair in pairs:
            np.testing.assert_array_equal(answers[pair], alone.scores_for(*pair))
        assert engine.stats()["batching"]["max_batch_size"] == 1

    def test_concurrent_cold_requests_for_one_pair_run_one_forward_pass(
        self, tmp_path, tiny_dataset
    ):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        decoding = threading.Event()
        blocked_scores = engine._blocked_scores

        def slow_first_decode(*args):
            if not decoding.is_set():
                decoding.set()
                time.sleep(0.3)  # hold the model lock while the second misses
            return blocked_scores(*args)

        engine._blocked_scores = slow_first_decode
        calls, misses = engine.stats()["predict_calls"], engine.cache.misses
        answers = []
        first = threading.Thread(target=lambda: answers.append(engine.scores_for(2, 1)))
        first.start()
        assert decoding.wait(timeout=30)
        second = threading.Thread(target=lambda: answers.append(engine.scores_for(2, 1)))
        second.start()
        first.join()
        second.join()
        assert engine.cache.misses == misses + 2  # both missed the cache
        assert engine.stats()["predict_calls"] == calls + 1
        np.testing.assert_array_equal(answers[0], answers[1])

    def test_batched_results_match_sequential(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        engine.store.warm_up(tiny_dataset.train)
        sequential = {
            (s, r): engine._execute_batch([(s, r)])[0][(s, r)]
            for s in range(3) for r in range(2)
        }
        engine.cache.clear()
        outputs = {}
        threads = [
            threading.Thread(
                target=lambda s=s, r=r: outputs.__setitem__((s, r), engine.scores_for(s, r))
            )
            for s in range(3) for r in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for pair, expected in sequential.items():
            np.testing.assert_array_equal(outputs[pair], expected)
