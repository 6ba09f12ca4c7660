"""Router over pre-spawned workers: ``attach_workers`` / ``--worker-urls``."""

import threading

import pytest

from repro.baselines import build_model
from repro.data import generate_dataset
from repro.nn.serialization import save_checkpoint
from repro.serving import (
    ClusterRouter,
    ServingClient,
    create_router_server,
    create_worker_server,
)
from repro.serving.cluster import attach_workers, build_shard_engine


@pytest.fixture(scope="module")
def workers(tmp_path_factory):
    dataset = generate_dataset("unit_tiny")
    tmp = tmp_path_factory.mktemp("attach")
    model = build_model("distmult", dataset.num_entities, dataset.num_relations, dim=8)
    path = str(tmp / "m.npz")
    save_checkpoint(model, path, metadata={
        "format": 1,
        "model": "distmult",
        "num_entities": dataset.num_entities,
        "num_relations": dataset.num_relations,
        "dim": 8,
        "window": {"history_length": 2, "granularity": 2,
                   "use_global": False, "track_vocabulary": False},
    })
    servers = []
    for i in range(2):
        engine = build_shard_engine(path, shard_index=i, num_shards=2)
        engine.store.warm_up(dataset.train)
        server = create_worker_server(engine, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()


class TestAttachWorkers:
    def test_attach_sorts_and_validates(self, workers):
        urls = [server.url for server in workers]
        pairs = attach_workers(urls[::-1])  # any order in, index order out
        assert [shard.index for _, shard in pairs] == [0, 1]
        assert pairs[0][1].lo == 0
        assert pairs[0][1].hi == pairs[1][1].lo

    def test_attached_router_serves_predictions(self, workers):
        pairs = attach_workers([server.url for server in workers])
        router = ClusterRouter(pairs)
        server = create_router_server(router, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            out = ServingClient(server.url).predict(0, 0, top_k=5)
            assert len(out["predictions"]) == 5
            assert not out.get("partial")
        finally:
            server.shutdown()
            server.server_close()

    def test_incomplete_cover_is_rejected(self, workers):
        with pytest.raises(RuntimeError, match="cluster size"):
            attach_workers([workers[0].url])

    def test_unreachable_worker_is_a_clear_error(self):
        with pytest.raises(RuntimeError, match="unreachable"):
            attach_workers(["http://127.0.0.1:1"])

    def test_non_shard_endpoint_is_rejected(self, workers):
        # the router's own /health has no shard assignment; attaching a
        # router (or plain server) must fail loudly, not mis-wire
        pairs = attach_workers([server.url for server in workers])
        router = ClusterRouter(pairs)
        server = create_router_server(router, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with pytest.raises(RuntimeError, match="shard"):
                attach_workers([server.url])
        finally:
            server.shutdown()
            server.server_close()

    def test_empty_url_list_is_rejected(self):
        with pytest.raises(ValueError):
            attach_workers([])
