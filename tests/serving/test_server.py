"""HTTP frontend: routes, schemas, error handling, stats counters."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines import build_model
from repro.nn.serialization import save_checkpoint
from repro.serving import InferenceEngine, ServingClient, ServingError, serve_in_thread


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live server over a distmult engine warmed up on a tiny TKG."""
    from repro.data.profiles import DatasetProfile
    from repro.data.synthetic import SyntheticTKGGenerator

    dataset = SyntheticTKGGenerator(DatasetProfile(
        name="serve_tiny", num_entities=25, num_relations=5,
        num_timestamps=24, facts_per_snapshot=10,
        time_granularity="1 step", seed=99,
    )).generate()
    model = build_model("distmult", 25, 5, dim=8)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    save_checkpoint(model, path, metadata={
        "model": "distmult", "num_entities": 25, "num_relations": 5, "dim": 8,
        "window": {"history_length": 2, "use_global": False},
    })
    engine = InferenceEngine.from_checkpoint(path)
    engine.store.warm_up(dataset.train)
    server, thread = serve_in_thread(engine)
    yield server, engine
    server.shutdown()
    server.server_close()


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode())


class TestRoutes:
    def test_health(self, served):
        server, engine = served
        body = ServingClient(server.url).health()
        assert body["status"] == "ok"
        assert body["model"] == "distmult"
        assert body["num_entities"] == 25

    def test_predict_single(self, served):
        server, _ = served
        body = ServingClient(server.url).predict(0, 1, top_k=4)
        assert len(body["predictions"]) == 4
        assert body["predictions"][0]["rank"] == 1
        assert isinstance(body["predictions"][0]["score"], float)

    def test_predict_batch(self, served):
        server, _ = served
        body = ServingClient(server.url).predict_many(
            [{"subject": 1, "relation": 0}, {"subject": 2, "relation": 3, "top_k": 2}],
            top_k=5,
        )
        assert len(body["results"]) == 2
        assert len(body["results"][0]["predictions"]) == 5
        assert len(body["results"][1]["predictions"]) == 2

    def test_ingest_then_version_advances(self, served):
        server, engine = served
        client = ServingClient(server.url)
        version = engine.store.window_version
        t = engine.store.current_time + 1
        body = client.ingest([[0, 1, 2], [3, 2, 4]], timestamp=t, flush=True)
        assert body["accepted"] == 2
        assert body["flushed"] is True
        assert body["window_version"] == version + 1

    def test_ingest_quads(self, served):
        server, engine = served
        t = engine.store.current_time + 1
        body = ServingClient(server.url).ingest([[0, 1, 2, t], [1, 0, 3, t]])
        assert body["accepted"] == 2
        assert body["current_time"] == t

    def test_stats_reports_endpoints_and_cache(self, served):
        server, _ = served
        client = ServingClient(server.url)
        client.predict(4, 2)
        client.predict(4, 2)  # cache hit
        body = client.stats()
        endpoints = body["server"]["endpoints"]
        assert "POST /predict" in endpoints
        assert endpoints["POST /predict"]["requests"] >= 2
        for q in ("p50", "p95", "p99", "mean"):
            assert endpoints["POST /predict"]["latency_ms"][q] >= 0
        assert body["engine"]["cache"]["hits"] >= 1
        assert body["server"]["requests_per_s"] > 0
        assert body["engine"]["store"]["window_snapshots"] >= 1


class TestErrors:
    def test_unknown_route_404(self, served):
        server, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert err.value.code == 404

    def test_bad_json_400(self, served):
        server, _ = served
        request = urllib.request.Request(
            server.url + "/predict", data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_missing_fields_400(self, served):
        server, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/predict", {"subject": 1})
        assert err.value.code == 400

    def test_out_of_range_query_400(self, served):
        server, _ = served
        with pytest.raises(ServingError) as err:
            ServingClient(server.url).predict(9999, 0)
        assert err.value.status == 400
        assert "subject" in str(err.value)

    def test_out_of_order_ingest_400(self, served):
        server, _ = served
        with pytest.raises(ServingError) as err:
            ServingClient(server.url).ingest([[0, 0, 1]], timestamp=0)
        assert err.value.status == 400
        assert "out-of-order" in str(err.value)

    def test_ingest_requires_one_payload_kind(self, served):
        server, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/ingest", {"events": [[0, 0, 1]],
                                           "quads": [[0, 0, 1, 2]]})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/ingest", {"events": [[0, 0, 1]]})  # no timestamp
        assert err.value.code == 400

    def test_errors_counted_in_stats(self, served):
        server, _ = served
        client = ServingClient(server.url)
        with pytest.raises(ServingError):
            client.predict(9999, 0)
        stats = client.stats()
        assert stats["server"]["endpoints"]["POST /predict"]["errors"] >= 1


def test_server_refuses_a_live_op_profiler():
    """OpProfiler patches Tensor process-wide: no server may start beside it."""
    from repro.obs.profiler import OpProfiler
    from repro.serving.server import BaseJSONHandler, DrainableHTTPServer

    with OpProfiler():
        with pytest.raises(RuntimeError, match="OpProfiler"):
            DrainableHTTPServer(("127.0.0.1", 0), BaseJSONHandler)
    server = DrainableHTTPServer(("127.0.0.1", 0), BaseJSONHandler)
    server.server_close()
