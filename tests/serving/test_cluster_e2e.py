"""Subprocess cluster smoke: supervisor + real worker processes.

The CI cluster job runs exactly this file.  A hisres checkpoint is
served by a :class:`ClusterSupervisor` (router in-process, 2 decode
workers as ``repro.cli cluster-worker`` subprocesses) and must match a
single-process :class:`InferenceEngine` answer for answer — bitwise,
through two JSON hops.
"""

import urllib.request

import pytest

from repro.baselines import build_model
from repro.data import generate_dataset
from repro.nn.serialization import save_checkpoint
from repro.serving import ClusterConfig, ClusterSupervisor, InferenceEngine, ServingClient

WARMUP = "unit_tiny"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    dataset = generate_dataset(WARMUP)
    model = build_model(
        "hisres", dataset.num_entities, dataset.num_relations, dim=8
    )
    path = str(tmp_path_factory.mktemp("cluster") / "hisres.npz")
    save_checkpoint(model, path, metadata={
        "format": 1,
        "model": "hisres",
        "num_entities": dataset.num_entities,
        "num_relations": dataset.num_relations,
        "dim": 8,
        "window": {"history_length": 3, "granularity": 1,
                   "use_global": True, "track_vocabulary": False},
    })
    return path


@pytest.fixture(scope="module")
def cluster(checkpoint, tmp_path_factory):
    supervisor = ClusterSupervisor(ClusterConfig(
        checkpoint=checkpoint,
        num_workers=2,
        port=0,
        state_dir=str(tmp_path_factory.mktemp("state-tier")),
        warmup=WARMUP,
        ready_timeout_s=180.0,
    ))
    server = supervisor.start()
    import threading

    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield supervisor
    supervisor.stop()
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def single_engine(checkpoint):
    engine = InferenceEngine.from_checkpoint(checkpoint)
    dataset = generate_dataset(WARMUP)
    engine.store.warm_up(dataset.train)
    engine.store.warm_up(dataset.valid)
    return engine


def _queries(n=10, top_k=6):
    return [
        {"subject": (i * 7) % 30, "relation": i % 6, "top_k": top_k,
         "inverse": bool(i % 3 == 2)}
        for i in range(n)
    ]


class TestClusterSmoke:
    def test_health_shows_two_live_workers(self, cluster):
        health = ServingClient(cluster.server.url).health()
        assert health["status"] == "ok"
        assert health["live_workers"] == 2
        ranges = sorted(
            (w["shard"]["lo"], w["shard"]["hi"]) for w in health["workers"]
        )
        assert ranges == [(0, 15), (15, 30)]

    def test_predict_parity_with_single_process(self, cluster, single_engine):
        queries = _queries()
        expected = single_engine.predict_many(queries, default_top_k=6)
        got = ServingClient(cluster.server.url).predict_many(queries, top_k=6)
        assert "partial" not in got
        assert got["results"] == expected

    def test_ingest_then_parity_again(self, cluster, single_engine):
        client = ServingClient(cluster.server.url)
        t = client.health()["workers"][0]["health"]["current_time"] + 1
        events = [[0, 1, 2], [4, 3, 9], [11, 5, 7]]
        client.ingest(events, timestamp=t, flush=True)
        single_engine.ingest(events, timestamp=t)
        single_engine.flush()
        queries = _queries(n=6)
        got = client.predict_many(queries, top_k=6)
        expected = single_engine.predict_many(queries, default_top_k=6)
        assert got["results"] == expected

    def test_metrics_expose_per_shard_series(self, cluster):
        text = urllib.request.urlopen(
            cluster.server.url + "/metrics"
        ).read().decode()
        for shard in ("0", "1"):
            assert f'repro_cluster_requests_total{{shard="{shard}"}}' in text
        assert "repro_cluster_gather_seconds" in text

    def test_killed_worker_gives_partial_then_recovers(self, cluster):
        client = ServingClient(cluster.server.url, timeout=60.0)
        cluster.processes[1].proc.kill()
        cluster.processes[1].proc.wait(timeout=10.0)
        degraded = client.predict_many(_queries(n=3), top_k=4)
        assert degraded.get("partial") is True
        assert [m["index"] for m in degraded["missing_shards"]] == [1]
        # the supervisor restarts the worker and replays the journal
        import time

        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if client.health()["status"] == "ok":
                break
            time.sleep(0.5)
        health = client.health()
        assert health["status"] == "ok"
        assert cluster.restarts.get(1, 0) >= 1
        recovered = client.predict_many(_queries(n=3), top_k=4)
        assert "partial" not in recovered
