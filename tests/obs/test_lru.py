"""BoundedLRU: LRU semantics, and counters that belong to one instance."""

import threading

import pytest

from repro.baselines import build_model
from repro.core.execution import EncoderStateCache, ExecutionPlan
from repro.core.window import WindowBuilder
from repro.graphs import NeighborSampler
from repro.obs.lru import BoundedLRU
from repro.obs.metrics import get_registry, parse_prometheus_text
from repro.serving import InferenceEngine, OnlineHistoryStore


class TestBoundedLRU:
    def test_get_put_evicts_least_recently_used(self):
        lru = BoundedLRU(2, cache="t", owner="lru-test")
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refreshes "a"
        lru.put("c", 3)  # evicts "b"
        assert list(lru) == ["a", "c"]
        assert lru.get("b", "gone") == "gone"
        assert lru.stats() == {
            "entries": 2, "capacity": 2, "hits": 1, "misses": 1,
            "evictions": 1, "hit_rate": 0.5,
        }

    def test_peek_counts_hits_only(self):
        lru = BoundedLRU(4, cache="t", owner="lru-test")
        assert lru.peek("x") is None
        lru.put("x", 0)
        assert lru.peek("x") == 0
        assert (lru.hits, lru.misses) == (1, 0)

    def test_zero_capacity_stores_nothing(self):
        lru = BoundedLRU(0, cache="t", owner="lru-test")
        lru.put("a", 1)
        assert len(lru) == 0 and lru.get("a") is None
        with pytest.raises(ValueError):
            BoundedLRU(-1, cache="t", owner="lru-test")

    def test_clear_and_entries_gauge(self):
        lru = BoundedLRU(4, cache="t", owner="lru-test")
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.stats()["entries"] == 2
        lru.clear()
        assert len(lru) == 0 and lru.stats()["entries"] == 0

    def test_record_owner_specific_event(self):
        lru = BoundedLRU(4, cache="t", owner="lru-test")
        assert lru.count("identity") == 0
        lru.record("identity")
        assert lru.count("identity") == 1

    def test_stats_equal_exported_series(self):
        lru = BoundedLRU(1, cache="t", owner="lru-export")
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("b")
        lru.get("a")
        exported = {
            s.labels["event"]: int(s.value)
            for s in parse_prometheus_text(get_registry().render_prometheus())
            if s.name == "repro_cache_events_total"
            and s.labels.get("instance") == lru.instance
        }
        assert exported == {"hit": 1, "miss": 1, "evict": 1}

    def test_concurrent_counts_are_exact(self):
        lru = BoundedLRU(8, cache="t", owner="lru-threads")
        lru.put("k", 1)

        def hammer():
            for _ in range(500):
                lru.get("k")
                lru.get("absent")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert (lru.hits, lru.misses) == (2000, 2000)


# ----------------------------------------------------------------------
# Cross-instance isolation: two same-owner objects, one driven.
# ----------------------------------------------------------------------

def _window(dataset):
    builder = WindowBuilder(dataset.num_entities, dataset.num_relations, history_length=2)
    items = sorted(dataset.train.facts_by_time().items())
    for _, quads in items[:-1]:
        builder.absorb(quads)
    t, quads = items[-1]
    return builder.window_for(quads[:, :3], prediction_time=t), quads


def _sampler_case(dataset):
    window, quads = _window(dataset)
    used, idle = (NeighborSampler("2,2", owner="x") for _ in range(2))

    def drive():
        used.induce(window, quads[:, 0])
        used.induce(window, quads[:, 0])

    def counts(sampler):
        stats = sampler.stats()
        return {event: stats[event] for event in ("hit", "miss", "identity")}

    return used, idle, drive, counts


def _state_cache_case(dataset):
    window, quads = _window(dataset)
    model = build_model("distmult", dataset.num_entities, dataset.num_relations, dim=8)
    used, idle = (EncoderStateCache(capacity=1, owner="x") for _ in range(2))
    plan = ExecutionPlan(model, cache=used)

    def drive():
        plan.entity_scores(window, quads)
        plan.entity_scores(window, quads)

    def counts(cache):
        stats = cache.stats()
        return {key: stats[key] for key in ("hits", "misses", "evictions")}

    return used, idle, drive, counts


def _engines(dataset):
    def engine():
        model = build_model("distmult", dataset.num_entities, dataset.num_relations, dim=8)
        store = OnlineHistoryStore(dataset.num_entities, dataset.num_relations)
        store.warm_up(dataset.train)
        return InferenceEngine(model, store)

    used, idle = engine(), engine()

    def drive():
        used.predict(1, 1)
        used.predict(1, 1)
        used.predict_many([{"subject": 2, "relation": 0}])

    return used, idle, drive


def _prediction_cache_case(dataset):
    used, idle, drive = _engines(dataset)

    def counts(engine):
        stats = engine.cache.stats()
        return {key: stats[key] for key in ("hits", "misses", "evictions", "entries")}

    return used, idle, drive, counts


def _engine_counters_case(dataset):
    used, idle, drive = _engines(dataset)

    def counts(engine):
        stats = engine.stats()
        return {
            "queries_served": stats["queries_served"],
            "predict_calls": stats["predict_calls"],
            "batches": stats["batching"]["batches"],
            "batched_queries": stats["batching"]["batched_queries"],
            "max_batch_size": stats["batching"]["max_batch_size"],
        }

    return used, idle, drive, counts


@pytest.mark.parametrize(
    "case",
    [_sampler_case, _state_cache_case, _prediction_cache_case, _engine_counters_case],
    ids=["sampler", "state_cache", "prediction_cache", "engine_counters"],
)
def test_same_owner_instances_do_not_share_counts(case, tiny_dataset):
    used, idle, drive, counts = case(tiny_dataset)
    drive()
    assert any(counts(used).values()), "the driven instance counted nothing"
    assert counts(idle) == dict.fromkeys(counts(idle), 0)
