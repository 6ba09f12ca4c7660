"""Cluster observability acceptance: merged traces, federated metrics.

One ``/predict`` against a 2-worker in-process cluster must produce a
single merged Chrome trace whose spans share one trace id across the
router and both worker lanes, and the router's federated ``/metrics``
aggregates must equal the registry's own totals, each series counted
once.
"""

import json
import time
import urllib.request

import pytest

from repro.baselines import build_model
from repro.core.config import WindowConfig
from repro.obs.metrics import get_registry, parse_prometheus_text
from repro.obs.trace import TraceContext, disable_tracing, enable_tracing
from repro.serving import (
    OnlineHistoryStore,
    ShardEngine,
    federated_name,
    launch_local_cluster,
    partition_entities,
)
from repro.serving.server import REQUEST_ID_HEADER


@pytest.fixture(scope="module")
def cluster(tiny_dataset):
    model = build_model(
        "hisres", tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8
    )

    def make_store():
        store = OnlineHistoryStore(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            window_config=WindowConfig(history_length=2),
        )
        store.warm_up(tiny_dataset.train)
        return store

    engines = [
        ShardEngine(model, make_store(), shard, model_key="hisres")
        for shard in partition_entities(tiny_dataset.num_entities, 2)
    ]
    local = launch_local_cluster(engines)
    yield local
    local.stop()


@pytest.fixture(autouse=True)
def _tracing_off():
    yield
    disable_tracing()


def _post(url, payload, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return dict(response.headers), json.loads(response.read().decode())


def _family_values(text, name, label_filter=None):
    """All sample values of one family in an exposition text."""
    return [
        s.value for s in parse_prometheus_text(text)
        if s.name == name
        and all(s.labels.get(k) == v for k, v in (label_filter or {}).items())
    ]


class TestMergedTrace:
    def test_single_predict_yields_one_cross_process_trace(self, cluster, tmp_path):
        tracer = enable_tracing(reset=True)
        ctx = TraceContext.new()  # act as an already-traced client
        queries = [
            {"subject": i % 30, "relation": i % 6, "top_k": 5} for i in range(4)
        ]
        headers, body = _post(
            cluster.url + "/predict",
            {"queries": queries, "top_k": 5},
            headers={TraceContext.HEADER: ctx.to_traceparent()},
        )
        assert len(body["results"]) == 4
        disable_tracing()

        spans = [s for s in tracer.spans() if s.trace_id == ctx.trace_id]
        names = [s.name for s in spans]
        # router-side spans and both workers' decode spans, one trace id
        assert "router.predict" in names
        assert names.count("cluster.scatter") == 2
        assert names.count("shard.decode") == 2
        assert any(s.name == "http.request" and s.attrs.get("route") == "POST /predict"
                   for s in spans)
        decode_requests = [
            s for s in spans
            if s.name == "http.request" and s.attrs.get("route") == "POST /decode"
        ]
        assert len(decode_requests) == 2

        # spans from >= 2 distinct worker processes, plus the router's own
        worker_lanes = {s.process for s in spans if s.process}
        assert worker_lanes == {"worker-shard0", "worker-shard1"}

        # parent/child edges are intact: every span hangs off the client
        # context or another span of the same trace
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            assert s.parent_span_id is not None
            assert s.parent_span_id == ctx.span_id or s.parent_span_id in by_id
        roots = [s for s in spans if s.parent_span_id == ctx.span_id]
        assert [s.name for s in roots] == ["http.request"]
        for req in decode_requests:
            assert by_id[req.parent_span_id].name == "cluster.scatter"

        # the merged trace exports as one valid Chrome trace file
        path = tracer.write_chrome_trace(str(tmp_path / "cluster_trace.json"))
        with open(path) as fh:
            payload = json.load(fh)
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"
                  and e["args"].get("trace_id") == ctx.trace_id]
        assert len(events) == len(spans)
        assert {e["args"]["trace_id"] for e in events} == {ctx.trace_id}
        lanes = {e["args"]["name"] for e in payload["traceEvents"] if e["ph"] == "M"}
        assert {"worker-shard0", "worker-shard1"} <= lanes
        # worker spans render in different process lanes than router spans
        pid_of = {}
        for e in events:
            pid_of.setdefault(e["name"], set()).add(e["pid"])
        assert len(pid_of["shard.decode"]) == 2
        assert not (pid_of["shard.decode"] & pid_of["router.predict"])

    def test_untraced_predict_ships_no_spans(self, cluster):
        # without --trace the decode payload must stay lean
        _, body = _post(
            cluster.url + "/predict", {"subject": 1, "relation": 1, "top_k": 3}
        )
        assert "spans" not in body


class TestFederatedMetrics:
    def _scrape(self, url):
        with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
            return response.read().decode()

    def test_cluster_sum_equals_sum_of_worker_scrapes(self, cluster):
        """``shard="sum"`` is every worker series counted once.

        The in-process workers share the router's registry, so each
        worker scrape holds every worker's series; the oracle is the
        registry's own total, read without HTTP or federation.
        """
        for i in range(3):
            _post(cluster.url + "/predict",
                  {"subject": (3 * i) % 30, "relation": i % 6, "top_k": 4})
        # traffic first, then scrape: engine counters hold still after it
        router_text = self._scrape(cluster.url)
        registry = get_registry()

        def registry_total(name, **labels):
            family = registry.get(name)
            return sum(
                child.value for values, child in family.children()
                if all(dict(zip(family.labelnames, values))[k] == v
                       for k, v in labels.items())
            )

        def federated(name, **labels):
            (value,) = _family_values(
                router_text, federated_name(name), {"shard": "sum", **labels}
            )
            return value

        # unsharded, instance-labeled families
        for name, labels in (
            ("repro_engine_queries_served_total", {}),
            ("repro_engine_predict_calls_total", {}),
        ):
            total = registry_total(name, **labels)
            assert total > 0
            assert federated(name, **labels) == total

        # a shard-labeled family: per-shard children and their sum
        decode = "repro_shard_decode_requests_total"
        for shard in ("0", "1"):
            (value,) = _family_values(
                router_text, federated_name(decode), {"shard": shard}
            )
            assert value == registry_total(decode, shard=shard) > 0
        assert federated(decode) == registry_total(decode)

    def test_max_and_per_shard_children_exported(self, cluster):
        text = self._scrape(cluster.url)
        name = federated_name("repro_shard_decode_requests_total")
        (max_value,) = _family_values(text, name, {"shard": "max"})
        (sum_value,) = _family_values(text, name, {"shard": "sum"})
        # enumerate the real per-shard children (stale shards from other
        # test files' clusters ride along in the shared registry)
        per_shard = {
            sample.labels["shard"]: sample.value
            for sample in parse_prometheus_text(text)
            if sample.name == name
            and sample.labels.get("shard") not in ("sum", "max")
        }
        assert {"0", "1"} <= set(per_shard)
        assert max_value == max(per_shard.values())
        assert sum_value == sum(per_shard.values())

    def test_federation_meta_metrics(self, cluster):
        text = self._scrape(cluster.url)
        (live,) = _family_values(text, "repro_cluster_live_workers")
        assert live == 2
        scrapes = sum(_family_values(text, "repro_cluster_scrapes_total"))
        assert scrapes > 0

    def test_federated_families_are_not_reingested(self, cluster):
        # shared-registry feedback guard: no repro_cluster_cluster_*
        self._scrape(cluster.url)
        text = self._scrape(cluster.url)
        assert "repro_cluster_cluster_" not in text


class TestRouterAuditPlane:
    def test_debug_requests_has_per_shard_breakdown(self, cluster):
        rid = "deadbeefcafef00d"
        _post(cluster.url + "/predict",
              {"subject": 5, "relation": 2, "top_k": 3},
              headers={REQUEST_ID_HEADER: rid})
        # the audit entry lands just after the response goes out — poll
        deadline = time.monotonic() + 2.0
        entries = []
        while not entries and time.monotonic() < deadline:
            entries = [
                e for e in cluster.server.audit.entries()
                if e["request_id"] == rid
            ]
            time.sleep(0.01)
        (entry,) = entries
        assert entry["route"] == "POST /predict"
        shards = sorted(entry["shards"], key=lambda leg: leg["shard"])
        assert [leg["shard"] for leg in shards] == [0, 1]
        for leg in shards:
            assert leg["ok"] is True
            assert leg["latency_ms"] >= 0

    def test_partial_reply_carries_request_id(self, cluster):
        # kill one worker: the degraded answer must stay correlatable.
        # runs last in the file — the cluster fixture is module-scoped
        # and the dead worker stays dead.
        cluster.kill_worker(1)
        rid = "0123456789abcdef"
        _, body = _post(cluster.url + "/predict",
                        {"subject": 2, "relation": 1, "top_k": 3},
                        headers={REQUEST_ID_HEADER: rid})
        assert body["partial"] is True
        assert body["request_id"] == rid
