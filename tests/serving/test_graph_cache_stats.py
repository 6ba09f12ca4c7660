"""Compiled-graph reuse across serving requests, surfaced in /stats."""

import numpy as np

from repro.baselines import build_model
from repro.core.config import WindowConfig
from repro.graphs.compiled import reset_compiled_cache_stats
from repro.serving.engine import InferenceEngine
from repro.serving.store import OnlineHistoryStore


def _engine(tiny_dataset):
    store = OnlineHistoryStore(
        tiny_dataset.num_entities,
        tiny_dataset.num_relations,
        window_config=WindowConfig(history_length=2, use_global=True),
    )
    store.warm_up(tiny_dataset.train, max_timestamps=4)
    model = build_model(
        "hisres", tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8
    )
    # cache_entries=0 disables the score cache and state_cache_entries=0
    # the encoder-state cache, so every predict call actually reaches
    # the model (and hence the graph plane)
    return InferenceEngine(
        model, store, cache_entries=0, state_cache_entries=0
    )


def test_stats_expose_graph_cache_counters(tiny_dataset):
    engine = _engine(tiny_dataset)
    stats = engine.stats()["store"]["graph_caches"]
    for key in (
        "snapshot_builds",
        "snapshot_hits",
        "merged_builds",
        "merged_hits",
        "global_builds",
        "global_hits",
        "compiled_builds",
        "compiled_hits",
    ):
        assert key in stats, f"missing {key} in /stats graph_caches"


def test_requests_within_a_window_version_reuse_compiled_graphs(tiny_dataset):
    engine = _engine(tiny_dataset)
    reset_compiled_cache_stats()
    engine.predict(subject=1, relation=0, top_k=3)
    first = engine.stats()["store"]["graph_caches"]
    engine.predict(subject=1, relation=1, top_k=3)
    second = engine.stats()["store"]["graph_caches"]
    # the second request re-encodes the same sealed window: every
    # snapshot/merged graph is the same instance, so its compiled
    # layouts are cache hits, not rebuilds
    assert second["compiled_hits"] > first["compiled_hits"]
    assert second["compiled_builds"] >= first["compiled_builds"]
    # rollover invalidates: new snapshot graphs mean new compiled builds
    version = engine.store.window_version
    t = engine.store.current_time + 1
    engine.ingest(np.array([[0, 0, 1, t], [2, 1, 3, t]]))
    engine.flush()
    assert engine.store.window_version > version
    builds_before = engine.stats()["store"]["graph_caches"]["compiled_builds"]
    engine.predict(subject=1, relation=0, top_k=3)
    builds_after = engine.stats()["store"]["graph_caches"]["compiled_builds"]
    assert builds_after > builds_before
