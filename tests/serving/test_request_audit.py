"""Audit plane: request-id echo, /debug/requests ring, access log."""

import json
import logging
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.baselines import build_model
from repro.nn.serialization import save_checkpoint
from repro.serving import InferenceEngine, RequestAudit, serve_in_thread
from repro.serving.server import REQUEST_ID_HEADER, new_request_id


class TestRequestAuditRing:
    def test_ring_is_bounded_but_total_keeps_counting(self):
        audit = RequestAudit(capacity=3)
        for i in range(7):
            audit.record("POST /predict", 200, latency_ms=float(i))
        assert len(audit) == 3
        assert audit.total == 7
        # newest first, oldest evicted
        assert [e["latency_ms"] for e in audit.entries()] == [6.0, 5.0, 4.0]

    def test_slowest_ranks_by_latency(self):
        audit = RequestAudit(capacity=10)
        for ms in (5.0, 50.0, 1.0, 20.0):
            audit.record("POST /predict", 200, latency_ms=ms)
        assert [e["latency_ms"] for e in audit.slowest(2)] == [50.0, 20.0]

    def test_detail_fields_flatten_and_none_drops(self):
        audit = RequestAudit(capacity=4)
        entry = audit.record(
            "POST /predict", 200, 1.5,
            request_id="abc", trace_id="def",
            encode_mode="full", partial=None,
        )
        assert entry["encode_mode"] == "full"
        assert "partial" not in entry
        assert entry["request_id"] == "abc" and entry["trace_id"] == "def"

    def test_zero_capacity_disables(self):
        audit = RequestAudit(capacity=0)
        assert not audit.enabled
        assert audit.record("GET /health", 200, 1.0) is None
        assert audit.snapshot()["entries"] == []

    def test_snapshot_shapes(self):
        audit = RequestAudit(capacity=4)
        for ms in (3.0, 9.0):
            audit.record("POST /predict", 200, ms)
        newest = audit.snapshot()
        assert newest["order"] == "newest" and newest["returned"] == 2
        slowest = audit.snapshot(slowest=1)
        assert slowest["order"] == "slowest"
        assert slowest["entries"][0]["latency_ms"] == 9.0
        assert slowest["total"] == 2


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    from repro.data.profiles import DatasetProfile
    from repro.data.synthetic import SyntheticTKGGenerator

    dataset = SyntheticTKGGenerator(DatasetProfile(
        name="audit_tiny", num_entities=20, num_relations=4,
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
    server, _thread = serve_in_thread(engine)
    yield server
    server.shutdown()
    server.server_close()


def _call(url, payload=None, headers=None, method=None):
    """Raw request returning (status, headers, body-dict)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read().decode())


class TestRequestIdEcho:
    def test_caller_id_is_echoed(self, served):
        rid = new_request_id()
        status, headers, _ = _call(
            served.url + "/health", headers={REQUEST_ID_HEADER: rid}
        )
        assert status == 200
        assert headers[REQUEST_ID_HEADER] == rid

    def test_id_is_minted_when_absent(self, served):
        _, headers, _ = _call(served.url + "/health")
        minted = headers[REQUEST_ID_HEADER]
        assert len(minted) == 16 and int(minted, 16) >= 0

    def test_error_body_carries_request_id(self, served):
        rid = new_request_id()
        status, headers, body = _call(
            served.url + "/predict", payload={"subject": 1},  # missing relation
            headers={REQUEST_ID_HEADER: rid},
        )
        assert status == 400
        assert body["request_id"] == rid
        assert headers[REQUEST_ID_HEADER] == rid

    def test_metrics_response_carries_header_too(self, served):
        request = urllib.request.Request(served.url + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers[REQUEST_ID_HEADER]


class TestDebugRequests:
    def test_recent_requests_are_listed(self, served):
        rid = new_request_id()
        _call(served.url + "/predict",
              payload={"subject": 2, "relation": 1, "top_k": 3},
              headers={REQUEST_ID_HEADER: rid})
        # the audit entry lands right after the response bytes go out;
        # poll briefly so the read does not race the handler's epilogue
        deadline = time.monotonic() + 2.0
        while True:
            _, _, body = _call(served.url + "/debug/requests")
            mine = [e for e in body["entries"] if e["request_id"] == rid]
            if mine or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert body["capacity"] == served.audit.capacity
        assert len(mine) == 1
        entry = mine[0]
        assert entry["route"] == "POST /predict"
        assert entry["status"] == 200
        assert entry["latency_ms"] >= 0
        assert len(entry["trace_id"]) == 32
        # engine detail rides along: which encode path served the batch
        assert entry["encode_mode"] in ("full", "scoped", "cached")

    def test_debug_endpoint_does_not_audit_itself(self, served):
        _call(served.url + "/debug/requests")
        _, _, body = _call(served.url + "/debug/requests")
        assert all(e["route"] != "GET /debug/requests" for e in body["entries"])

    def test_slowest_query_orders_by_latency(self, served):
        for _ in range(3):
            _call(served.url + "/predict",
                  payload={"subject": 3, "relation": 0, "top_k": 2})
        _, _, body = _call(served.url + "/debug/requests?slowest=2")
        assert body["order"] == "slowest"
        assert body["returned"] <= 2
        latencies = [e["latency_ms"] for e in body["entries"]]
        assert latencies == sorted(latencies, reverse=True)

    def test_bad_slowest_is_400(self, served):
        status, _, body = _call(served.url + "/debug/requests?slowest=banana")
        assert status == 400
        assert "slowest" in body["error"]


def _audit_entries(served, request_ids):
    """Poll /debug/requests until every id has its entry (handler epilogue)."""
    deadline = time.monotonic() + 2.0
    while True:
        _, _, body = _call(served.url + "/debug/requests")
        found = {e["request_id"]: e for e in body["entries"] if e["request_id"] in request_ids}
        if len(found) == len(request_ids) or time.monotonic() > deadline:
            return found
        time.sleep(0.01)


class TestPerRequestBatchInfo:
    def test_concurrent_requests_record_their_own_batch(self, served, monkeypatch):
        """A miss and a prediction-cache hit overlap in time; each audit
        entry records its own request's encode mode, not whichever
        request ran last."""
        engine = served.engine
        miss_pair, hit_pair = (7, 2), (8, 3)
        engine.predict(*hit_pair)  # warm the hit pair into the prediction cache
        miss_answered, hit_finished = threading.Event(), threading.Event()
        real_predict = engine.predict

        def predict(subject, relation, **kwargs):
            result = real_predict(subject, relation, **kwargs)
            if (subject, relation) == miss_pair:
                # hold the miss's handler until the hit's batch has run
                miss_answered.set()
                hit_finished.wait(5.0)
            return result

        monkeypatch.setattr(engine, "predict", predict)
        miss_id, hit_id = new_request_id(), new_request_id()
        miss_call = threading.Thread(target=_call, args=(
            served.url + "/predict",
            {"subject": miss_pair[0], "relation": miss_pair[1]},
            {REQUEST_ID_HEADER: miss_id},
        ))
        miss_call.start()
        assert miss_answered.wait(5.0)
        status, _, _ = _call(
            served.url + "/predict",
            payload={"subject": hit_pair[0], "relation": hit_pair[1]},
            headers={REQUEST_ID_HEADER: hit_id},
        )
        hit_finished.set()
        miss_call.join(5.0)
        assert status == 200
        entries = _audit_entries(served, {miss_id, hit_id})
        assert entries[miss_id]["encode_mode"] == "full"
        assert entries[hit_id]["encode_mode"] == "cached"
        assert entries[miss_id]["cache_misses"] == 1
        assert entries[hit_id]["cache_misses"] == 0


class TestAccessLog:
    def test_one_structured_event_per_request(self, served, caplog):
        rid = new_request_id()
        with caplog.at_level(logging.INFO, logger="repro.serving.access"):
            _call(served.url + "/health", headers={REQUEST_ID_HEADER: rid})
            # the event fires just after the response is written; wait it out
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not any(
                getattr(r, "event", None) == "http.access"
                and r.fields.get("request_id") == rid
                for r in caplog.records
            ):
                time.sleep(0.01)
        records = [r for r in caplog.records
                   if getattr(r, "event", None) == "http.access"
                   and r.fields.get("request_id") == rid]
        assert len(records) == 1
        fields = records[0].fields
        assert fields["route"] == "GET /health"
        assert fields["status"] == 200
        assert fields["latency_ms"] >= 0
        assert len(fields["trace_id"]) == 32
