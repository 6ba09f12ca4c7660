"""In-process cluster: scatter/merge parity, degradation, drain, metrics.

Workers run as real HTTP servers on threads (full JSON round-trips),
so these tests cover everything except process isolation — which
``test_cluster_e2e.py`` adds on top.
"""

import urllib.request

import pytest

from repro.baselines import build_model
from repro.core.config import WindowConfig
from repro.obs.metrics import parse_prometheus_text
from repro.serving import (
    InferenceEngine,
    OnlineHistoryStore,
    ServingClient,
    ServingError,
    ShardEngine,
    launch_local_cluster,
    partition_entities,
)


@pytest.fixture(scope="module")
def hisres_model(tiny_dataset):
    return build_model(
        "hisres", tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8
    )


def _make_store(dataset):
    store = OnlineHistoryStore(
        dataset.num_entities,
        dataset.num_relations,
        window_config=WindowConfig(history_length=2),
    )
    store.warm_up(dataset.train)
    return store


def _single_engine(dataset, model):
    return InferenceEngine(
        model, _make_store(dataset), model_key="hisres"
    )


def _cluster(dataset, model, num_shards):
    engines = [
        ShardEngine(
            model, _make_store(dataset), shard, model_key="hisres"
        )
        for shard in partition_entities(dataset.num_entities, num_shards)
    ]
    return launch_local_cluster(engines)


def _query_stream(dataset, n=14, top_k=8):
    return [
        {
            "subject": (i * 3) % dataset.num_entities,
            "relation": i % dataset.num_relations,
            "top_k": top_k,
            "inverse": bool(i % 4 == 3),
        }
        for i in range(n)
    ]


class TestClusterParity:
    """Parity fence, sharded vs single-process: **bitwise**.

    Cluster ``/predict`` must equal the single-process answer exactly:
    entity ids, ranks and float64 scores, compared after a lossless JSON
    round trip (``repr(float)``), for any shard count.  No tolerance:
    each shard decodes its entity range on the same global tile grid,
    so a candidate's score never depends on the shard layout.
    """

    @pytest.mark.parametrize("num_shards", [2, 4, 7])
    def test_bitwise_identical_topk(self, tiny_dataset, hisres_model, num_shards):
        queries = _query_stream(tiny_dataset)
        expected = _single_engine(tiny_dataset, hisres_model).predict_many(
            queries, default_top_k=8
        )
        cluster = _cluster(tiny_dataset, hisres_model, num_shards)
        try:
            response = ServingClient(cluster.url).predict_many(queries, top_k=8)
        finally:
            cluster.stop()
        assert "partial" not in response
        # dict equality covers entity ids, ranks, AND exact float64
        # scores: json round-trips repr(float) losslessly
        assert response["results"] == expected

    def test_k_larger_than_shard_width(self, tiny_dataset, hisres_model):
        # 7 shards of a 25-entity vocabulary: width <= 4, ask for top-20
        queries = _query_stream(tiny_dataset, n=6, top_k=20)
        expected = _single_engine(tiny_dataset, hisres_model).predict_many(
            queries, default_top_k=20
        )
        cluster = _cluster(tiny_dataset, hisres_model, 7)
        try:
            response = ServingClient(cluster.url).predict_many(queries, top_k=20)
        finally:
            cluster.stop()
        assert response["results"] == expected

    def test_parity_survives_ingest_rollover(self, tiny_dataset, hisres_model):
        queries = _query_stream(tiny_dataset, n=6)
        single = _single_engine(tiny_dataset, hisres_model)
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            client = ServingClient(cluster.url)
            t = client.health()["workers"][0]["health"]["current_time"] + 1
            events = [[0, 1, 2], [3, 0, 4], [5, 2, 6]]
            client.ingest(events, timestamp=t, flush=True)
            single.ingest(events, timestamp=t)
            single.flush()
            response = client.predict_many(queries, top_k=8)
            expected = single.predict_many(queries, default_top_k=8)
        finally:
            cluster.stop()
        assert response["results"] == expected

    def test_single_query_schema_matches_server(self, tiny_dataset, hisres_model):
        single = _single_engine(tiny_dataset, hisres_model)
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            got = ServingClient(cluster.url).predict(4, 2, top_k=5)
        finally:
            cluster.stop()
        assert got == {
            "subject": 4,
            "relation": 2,
            "inverse": False,
            "predictions": single.predict(4, 2, top_k=5),
        }


class TestAnswerPurity:
    """A served answer depends only on the model, the window and the
    pair: with every cache off, a repeated pair is re-encoded from
    scratch each time and must still answer bitwise-identically, on any
    engine and through the cluster."""

    def test_hgls_answer_ignores_request_history(self, tiny_dataset):
        model = build_model(
            "hgls", tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8
        )
        uncached = dict(
            model_key="hgls", cache_entries=0, state_cache_entries=0
        )
        engine = InferenceEngine(model, _make_store(tiny_dataset), **uncached)
        first = engine.predict(4, 2, top_k=5)
        for s in range(6):
            engine.predict(s, s % tiny_dataset.num_relations, top_k=5)
        again = engine.predict(4, 2, top_k=5)
        fresh = InferenceEngine(model, _make_store(tiny_dataset), **uncached).predict(
            4, 2, top_k=5
        )
        cluster = launch_local_cluster([
            ShardEngine(model, _make_store(tiny_dataset), shard, **uncached)
            for shard in partition_entities(tiny_dataset.num_entities, 2)
        ])
        try:
            sharded = ServingClient(cluster.url).predict(4, 2, top_k=5)["predictions"]
        finally:
            cluster.stop()
        assert again == first
        assert fresh == first
        assert sharded == first


class TestDegradedMode:
    def test_dead_worker_yields_partial_not_error(self, tiny_dataset, hisres_model):
        queries = _query_stream(tiny_dataset, n=4, top_k=5)
        cluster = _cluster(tiny_dataset, hisres_model, 3)
        try:
            client = ServingClient(cluster.url)
            healthy = client.predict_many(queries, top_k=5)
            assert "partial" not in healthy
            cluster.kill_worker(1)
            degraded = client.predict_many(queries, top_k=5)
            assert degraded["partial"] is True
            assert [m["index"] for m in degraded["missing_shards"]] == [1]
            # surviving shards still answer every query
            assert len(degraded["results"]) == len(queries)
            for row in degraded["results"]:
                assert len(row["predictions"]) == 5
            # results restricted to live shards are still correctly ranked
            dead = cluster.router.workers[1].shard
            for row in degraded["results"]:
                for p in row["predictions"]:
                    assert not (dead.lo <= p["entity"] < dead.hi)
        finally:
            cluster.stop()

    def test_on_failure_callback_fires(self, tiny_dataset, hisres_model):
        failed = []
        engines = [
            ShardEngine(
                hisres_model, _make_store(tiny_dataset), shard,
                model_key="hisres",
            )
            for shard in partition_entities(tiny_dataset.num_entities, 2)
        ]
        cluster = launch_local_cluster(engines, on_failure=failed.append)
        try:
            cluster.kill_worker(0)
            ServingClient(cluster.url).predict_many(
                _query_stream(tiny_dataset, n=2), top_k=3
            )
        finally:
            cluster.stop()
        assert [w.shard.index for w in failed] == [0]

    def test_health_reports_degraded_then_revive(self, tiny_dataset, hisres_model):
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            client = ServingClient(cluster.url)
            assert client.health()["status"] == "ok"
            cluster.kill_worker(1)
            health = client.health()
            assert health["status"] == "degraded"
            assert health["live_workers"] == 1
            # revive against a fresh replacement worker server
            from repro.serving import create_worker_server
            import threading

            replacement = ShardEngine(
                hisres_model,
                _make_store(tiny_dataset),
                cluster.router.workers[1].shard,
                model_key="hisres",
            )
            server = create_worker_server(replacement)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            cluster.worker_servers[1] = server
            cluster.router.revive(cluster.router.workers[1], url=server.url)
            assert client.health()["status"] == "ok"
        finally:
            cluster.stop()

    def test_all_workers_dead_is_503(self, tiny_dataset, hisres_model):
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            cluster.kill_worker(0)
            cluster.kill_worker(1)
            with pytest.raises(ServingError) as exc:
                ServingClient(cluster.url).predict(0, 0)
            assert exc.value.status == 503
        finally:
            cluster.stop()


class TestIngestFanout:
    def test_ingest_reaches_every_worker_and_journal(self, tiny_dataset, hisres_model):
        cluster = _cluster(tiny_dataset, hisres_model, 3)
        try:
            client = ServingClient(cluster.url)
            t = client.health()["workers"][0]["health"]["current_time"] + 1
            result = client.ingest([[1, 2, 3]], timestamp=t, flush=True)
            assert result["flushed"] is True
            versions = {
                ws.engine.store.window_version for ws in cluster.worker_servers
            }
            assert len(versions) == 1  # all workers rolled over together
            assert cluster.router.journal.stats()["entries"] == 1
        finally:
            cluster.stop()


class TestDrain:
    def test_draining_rejects_work_but_keeps_reads(self, tiny_dataset, hisres_model):
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            client = ServingClient(cluster.url)
            cluster.server.begin_drain()
            health = client.health()
            assert health["status"] == "draining"
            with pytest.raises(ServingError) as exc:
                client.predict(0, 0)
            assert exc.value.status == 503
            assert client.stats()  # reads stay available
        finally:
            cluster.stop()

    def test_drain_waits_for_inflight(self, tiny_dataset, hisres_model):
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            cluster.server.request_started()
            assert cluster.server.drain(timeout=0.05) is False
            cluster.server.request_finished()
            assert cluster.server.drain(timeout=0.05) is True
        finally:
            cluster.stop()


class TestShardEngineCounters:
    def test_same_shard_index_engines_keep_separate_counts(self, tiny_dataset, hisres_model):
        """Two engines of one shard index in one process (the decode-scaling
        gate builds this) never read each other's decode counters."""
        shard = partition_entities(tiny_dataset.num_entities, 2)[0]
        a, b = (
            ShardEngine(hisres_model, _make_store(tiny_dataset), shard,
                        model_key="hisres")
            for _ in range(2)
        )
        queries = _query_stream(tiny_dataset, n=3)
        a.partial_topk(queries)
        a.partial_topk(queries)
        b.partial_topk(queries)
        assert a.instance != b.instance
        assert (a.stats()["decode_calls"], b.stats()["decode_calls"]) == (2, 1)
        assert a.stats()["decode_busy_s"] > 0 and b.stats()["decode_busy_s"] > 0
        assert (a.stats()["queries_served"], b.stats()["queries_served"]) == (6, 3)


class TestClusterMetrics:
    def test_router_stats_list_only_router_routes(self, tiny_dataset, hisres_model):
        """Router and workers share the process registry in-process; the
        router's ``/stats`` server section still counts only its own requests."""
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            client = ServingClient(cluster.url)
            client.predict(4, 2, top_k=3)
            server = client.stats()["server"]
        finally:
            cluster.stop()
        assert list(server["endpoints"]) == ["POST /predict"]
        assert server["total_requests"] == 1

    def test_per_shard_series_on_router_metrics(self, tiny_dataset, hisres_model):
        cluster = _cluster(tiny_dataset, hisres_model, 2)
        try:
            ServingClient(cluster.url).predict_many(
                _query_stream(tiny_dataset, n=3), top_k=4
            )
            text = urllib.request.urlopen(cluster.url + "/metrics").read().decode()
        finally:
            cluster.stop()
        samples = parse_prometheus_text(text)
        for shard in ("0", "1"):
            assert f'repro_cluster_requests_total{{shard="{shard}"}}' in text
            # one series per engine: shard plus the engine's instance label
            assert any(
                s.name == "repro_shard_decode_seconds_total"
                and s.labels.get("shard") == shard and s.labels.get("instance")
                for s in samples
            )
        assert "repro_cluster_scatter_seconds" in text
        assert "repro_cluster_gather_seconds" in text

    def test_state_tier_metrics_exposed(self, tiny_dataset, hisres_model, tmp_path):
        from repro.serving import SharedEncoderStateStore, TieredStateCache

        engines = [
            ShardEngine(
                hisres_model,
                _make_store(tiny_dataset),
                shard,
                model_key="hisres",
                state_cache=TieredStateCache(
                    SharedEncoderStateStore(
                        str(tmp_path), owner=f"mshard{shard.index}"
                    ),
                    owner=f"mshard{shard.index}",
                ),
            )
            for shard in partition_entities(tiny_dataset.num_entities, 2)
        ]
        cluster = launch_local_cluster(engines)
        try:
            ServingClient(cluster.url).predict_many(
                _query_stream(tiny_dataset, n=3), top_k=4
            )
            text = urllib.request.urlopen(cluster.url + "/metrics").read().decode()
        finally:
            cluster.stop()
        samples = parse_prometheus_text(text)
        publishes = {
            s.labels["instance"]: s.value
            for s in samples
            if s.name == "repro_state_tier_events_total"
            and s.labels.get("owner") == "mshard0" and s.labels.get("event") == "publish"
        }
        assert set(publishes) == {engines[0].state_cache.tier.instance}
        # the workers share this process's registry: the router counts each
        # tier series once, toward the sum only (it carries no shard label)
        federated = [
            s for s in samples
            if s.name == "repro_cluster_state_tier_events_total"
            and s.labels.get("event") == "publish"
            and s.labels.get("owner", "").startswith("mshard")
        ]
        assert {s.labels["shard"] for s in federated} == {"sum"}
        assert sum(s.value for s in federated) == 1
        # single-flight: one history encode and one publish cluster-wide;
        # the cheap query stage runs on each shard and stays in its memory
        encodes = [e.state_cache.stats()["encodes"] for e in engines]
        assert sum(e["history"] for e in encodes) == 1
        assert [e["query"] for e in encodes] == [1, 1]
        assert sum(e["full"] for e in encodes) == 0
        total_publishes = sum(
            e.state_cache.tier.stats()["events"]["publish"] for e in engines
        )
        assert total_publishes == 1
