"""GET /metrics: Prometheus exposition over the live serving plane."""

import re
import urllib.request

import json

import pytest

from repro.baselines import build_model
from repro.nn.serialization import save_checkpoint
from repro.obs.metrics import parse_prometheus_text
from repro.serving import InferenceEngine, serve_in_thread

_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    rf"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{{{_LABEL}(,{_LABEL})*\}})? "
    r"(-?[0-9.]+([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$"
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    from repro.data.profiles import DatasetProfile
    from repro.data.synthetic import SyntheticTKGGenerator

    dataset = SyntheticTKGGenerator(DatasetProfile(
        name="metrics_tiny", num_entities=20, num_relations=4,
        num_timestamps=16, facts_per_snapshot=8,
        time_granularity="1 step", seed=7,
    )).generate()
    model = build_model("distmult", 20, 4, dim=8)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    save_checkpoint(model, path, metadata={
        "model": "distmult", "num_entities": 20, "num_relations": 4, "dim": 8,
        "window": {"history_length": 2, "use_global": False},
    })
    engine = InferenceEngine.from_checkpoint(path)
    engine.store.warm_up(dataset.train)
    server, thread = serve_in_thread(engine)
    yield server, engine
    server.shutdown()
    server.server_close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.headers, response.read().decode()


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode())


def _series(text, name, **labels):
    """Value of the one exported sample of ``name`` carrying ``labels``."""
    (value,) = [
        s.value for s in parse_prometheus_text(text)
        if s.name == name and all(s.labels.get(k) == v for k, v in labels.items())
    ]
    return int(value)


def _cache_labels(lru):
    return {"cache": lru.cache, "owner": lru.owner, "instance": lru.instance}


class TestMetricsEndpoint:
    def test_content_type_and_exposition_validity(self, served):
        server, _ = served
        headers, text = _get(server.url + "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) ", line), line
            else:
                assert _SAMPLE_RE.match(line), f"bad exposition line: {line!r}"

    def test_request_latency_histogram_exported(self, served):
        server, _ = served
        _get(server.url + "/health")
        _, text = _get(server.url + "/metrics")
        labels = {"instance": server.instance, "route": "GET /health"}
        assert _series(
            text, "repro_http_request_latency_seconds_bucket", le="+Inf", **labels
        ) >= 1
        assert _series(text, "repro_http_request_latency_seconds_count", **labels) >= 1
        assert _series(text, "repro_http_requests_total", **labels) >= 1

    def test_cache_and_engine_counters_exported(self, served):
        server, engine = served
        _post(server.url + "/predict", {"subject": 1, "relation": 1})
        _post(server.url + "/predict", {"subject": 1, "relation": 1})  # cache hit
        _, text = _get(server.url + "/metrics")
        labels = _cache_labels(engine.cache)
        hits = _series(text, "repro_cache_events_total", event="hit", **labels)
        misses = _series(text, "repro_cache_events_total", event="miss", **labels)
        assert hits >= 1 and misses >= 1
        # /stats is a view over this engine's own series: exact equality
        stats = engine.stats()
        assert (hits, misses) == (stats["cache"]["hits"], stats["cache"]["misses"])
        assert _series(text, "repro_cache_entries", **labels) == stats["cache"]["entries"]
        instance = {"instance": engine.instance}
        assert _series(text, "repro_engine_queries_served_total", **instance) == (
            stats["queries_served"]
        )
        assert _series(text, "repro_engine_predict_calls_total", **instance) == (
            stats["predict_calls"]
        )
        assert _series(text, "repro_batcher_batches_total", **instance) == (
            stats["batching"]["batches"]
        )
        assert _series(text, "repro_batcher_max_batch_size", **instance) == (
            stats["batching"]["max_batch_size"]
        )
        assert "repro_compiled_graph_builds_total" in text
        assert 'cache="snapshot_graph",owner="window"' in text

    def test_encoder_state_cache_counters_exported(self, served):
        """Cold (s, r) pairs on a quiet window share one encode: the
        state-cache hit counter must be non-zero and exported."""
        server, engine = served
        # distinct cold pairs -> prediction-cache misses, but the window
        # content is unchanged (no global graph for distmult), so all but
        # the first decode from the cached encoder state
        for pair in ((2, 0), (3, 1), (4, 2), (5, 3)):
            _post(server.url + "/predict", {"subject": pair[0], "relation": pair[1]})
        _, text = _get(server.url + "/metrics")
        labels = _cache_labels(engine.state_cache)
        assert labels["cache"] == "encoder_state" and labels["owner"] == "serving"
        hit = _series(text, "repro_cache_events_total", event="hit", **labels)
        miss = _series(text, "repro_cache_events_total", event="miss", **labels)
        assert miss >= 1
        assert hit >= 1, "no state-cache hits on a quiet window"
        # /stats reads this cache's own series: exact equality
        stats = engine.stats()["state_cache"]
        assert (hit, miss) == (stats["hits"], stats["misses"])
        assert _series(text, "repro_cache_entries", **labels) == stats["entries"]
        assert stats["hit_rate"] > 0.0

    def test_window_version_gauge_tracks_store(self, served):
        server, engine = served
        _, text = _get(server.url + "/metrics")
        version = re.search(r"^repro_window_version (\d+)$", text, re.M)
        assert version and int(version.group(1)) == engine.store.window_version
        _post(server.url + "/ingest", {
            "events": [[0, 0, 1]],
            "timestamp": engine.store.current_time + 1,
            "flush": True,
        })
        _, text = _get(server.url + "/metrics")
        version = re.search(r"^repro_window_version (\d+)$", text, re.M)
        assert int(version.group(1)) == engine.store.window_version

    def test_stats_and_metrics_agree(self, served):
        """/stats and /metrics must read the same underlying objects."""
        server, _ = served
        _get(server.url + "/health")
        _, stats_text = _get(server.url + "/stats")
        stats = json.loads(stats_text)["server"]["endpoints"]["GET /health"]
        _, text = _get(server.url + "/metrics")
        # no /health request ran between the two reads: exact equality
        labels = {"instance": server.instance, "route": "GET /health"}
        assert _series(text, "repro_http_requests_total", **labels) == stats["requests"]
        errors = [
            s.value for s in parse_prometheus_text(text)
            if s.name == "repro_http_errors_total" and s.labels == labels
        ]
        assert int(sum(errors)) == stats["errors"]
