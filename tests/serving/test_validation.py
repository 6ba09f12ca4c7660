"""Request validation at the HTTP edge: 4xx for bad bodies, never a 5xx.

The same body is rejected the same way by the single-process server, by
the cluster router and by a shard worker's ``/decode``, and after any
mix of accepted and rejected ingests every history store equals a store
rebuilt from the accepted bodies alone.  Every request of a fuzz run
goes over one persistent connection per frontend, which must stay open
and in sync throughout.
"""

import contextlib
import http.client
import json
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import build_model
from repro.core.config import WindowConfig
from repro.serving import (
    InferenceEngine,
    OnlineHistoryStore,
    ShardEngine,
    launch_local_cluster,
    partition_entities,
    serve_in_thread,
)
from repro.serving.validation import BadRequest, parse_ingest, parse_predict

E, R = 20, 4
WINDOW = WindowConfig(history_length=2, use_global=False)


def _store():
    return OnlineHistoryStore(E, R, window_config=WINDOW)


def _warm(store):
    for t in range(3):
        store.ingest([[t, 0, t + 1], [t + 2, 1, t]], timestamp=t)
    store.flush()


def _engine():
    engine = InferenceEngine(
        build_model("distmult", E, R, dim=4), _store(), model_key="distmult",
    )
    _warm(engine.store)
    return engine


@contextlib.contextmanager
def _single():
    engine = _engine()
    server, _ = serve_in_thread(engine)
    try:
        yield {"/ingest": server.url, "/predict": server.url}, [engine.store]
    finally:
        server.shutdown()
        server.server_close()


@contextlib.contextmanager
def _cluster():
    model = build_model("distmult", E, R, dim=4)
    engines = []
    for shard in partition_entities(E, 2):
        engine = ShardEngine(model, _store(), shard, model_key="distmult")
        _warm(engine.store)
        engines.append(engine)
    running = launch_local_cluster(engines)
    urls = {"/ingest": running.url, "/predict": running.url,
            "/decode": running.worker_servers[0].url}
    try:
        yield urls, [e.store for e in engines]
    finally:
        running.stop()


FRONTENDS = {"single": _single, "cluster": _cluster}


@pytest.fixture(scope="module")
def single():
    with _single() as served:
        yield served


@pytest.fixture(scope="module")
def cluster():
    with _cluster() as served:
        yield served


@pytest.fixture(params=["single", "cluster"])
def frontend(request):
    return request.getfixturevalue(request.param)


@contextlib.contextmanager
def _connect(url):
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        yield connection
    finally:
        connection.close()


def _post(connection, path, body):
    """``(status, X-Request-Id, payload)`` of one POST on ``connection``."""
    connection.request(
        "POST", path, body=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.getheader("X-Request-Id"), json.loads(response.read())


BAD_BODIES = [
    ("/predict", {"subject": 1.5, "relation": 0}),
    ("/predict", {"subject": "1", "relation": 0}),
    ("/predict", {"subject": True, "relation": 0}),
    ("/predict", {"subject": 2 ** 70, "relation": 0}),
    ("/predict", {"subject": -1, "relation": 0}),
    ("/predict", {"subject": E, "relation": 0}),
    ("/predict", {"subject": 1, "relation": 2 * R}),
    ("/predict", {"subject": 1, "relation": R, "inverse": True}),
    ("/predict", {"subject": 1, "relation": 0, "inverse": "yes"}),
    ("/predict", {"subject": 1, "relation": 0, "top_k": -3}),
    ("/predict", {"subject": 1, "relation": 0, "top_k": 0}),
    ("/predict", {"subject": 1, "relation": 0, "top_k": E + 1}),
    ("/predict", {"queries": [{"subject": 1, "relation": 0, "top_k": 2.5}]}),
    ("/predict", {"queries": {"subject": 1, "relation": 0}}),
    ("/ingest", {"events": [[0.5, 0, 1]], "timestamp": 10}),
    ("/ingest", {"events": [[2 ** 70, 0, 1]], "timestamp": 10}),
    ("/ingest", {"events": [[0, 0, 1]], "timestamp": 2 ** 70}),
    ("/ingest", {"events": {"0": [0, 0, 1]}, "timestamp": 10}),
    ("/ingest", {"events": [[0, R, 1]], "timestamp": 10}),
    ("/ingest", {"events": [[0, 0, 1, 10]], "timestamp": 10}),
    ("/ingest", {"events": [[0, 0, 1]], "timestamp": 10, "flush": 1}),
    ("/ingest", {"quads": [[0, 0, 1]]}),
    ("/ingest", {"quads": [[0, 0, 1, 1.25]]}),
]


class TestRejectedAtTheEdge:
    @pytest.mark.parametrize("path,body", BAD_BODIES)
    def test_bad_body_is_a_400_with_request_id(self, frontend, path, body):
        urls, stores = frontend
        before = [s.stats()["total_events"] for s in stores]
        with _connect(urls[path]) as connection:
            status, request_id, payload = _post(connection, path, body)
        assert status == 400, payload
        assert request_id and payload["request_id"] == request_id
        assert [s.stats()["total_events"] for s in stores] == before

    @pytest.mark.parametrize("body", [b for path, b in BAD_BODIES if path == "/predict"]
                             + [{"top_k": 3}])
    def test_bad_decode_body_is_a_400(self, cluster, body):
        urls, _ = cluster
        body = body if "queries" in body or "subject" not in body else {"queries": [body]}
        with _connect(urls["/decode"]) as connection:
            status, request_id, payload = _post(connection, "/decode", body)
        assert status == 400, payload
        assert request_id and payload["request_id"] == request_id

    def test_valid_float_integral_ids_are_accepted(self, single):
        urls, _ = single
        with _connect(urls["/predict"]) as connection:
            status, _, payload = _post(
                connection, "/predict", {"subject": 1.0, "relation": 0, "top_k": 3.0}
            )
        assert status == 200 and payload["subject"] == 1
        assert len(payload["predictions"]) == 3

    def test_store_rejects_non_integer_arrays(self):
        store = _store()
        with pytest.raises(ValueError, match="integers"):
            store.ingest([[0.5, 0, 1]], timestamp=1)
        assert store.stats()["total_events"] == 0


class TestParsers:
    def test_predict_normalizes(self):
        queries, default_top_k, single = parse_predict(
            {"subject": 3, "relation": 1.0}, E, R
        )
        assert single and default_top_k == 10
        assert queries == [{"subject": 3, "relation": 1, "inverse": False, "top_k": 10}]

    def test_default_top_k_capped_at_vocabulary(self):
        _, default_top_k, _ = parse_predict({"subject": 0, "relation": 0}, 5, R)
        assert default_top_k == 5

    def test_ingest_normalizes(self):
        body = parse_ingest({"events": [[1, 2, 3]], "timestamp": 7.0}, E, R)
        assert body == {"events": [[1, 2, 3]], "timestamp": 7, "flush": False}
        with pytest.raises(BadRequest, match="exactly one"):
            parse_ingest({}, E, R)


# ----------------------------------------------------------------------
# fuzz

_junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_id = st.one_of(st.integers(-2, E + 2), _junk)
_rel = st.one_of(st.integers(-2, 2 * R + 1), _junk)
_row = st.one_of(st.lists(st.one_of(st.integers(0, R - 1), _id), min_size=2, max_size=5), _junk)
_query = st.fixed_dictionaries(
    {"subject": _id, "relation": _rel},
    optional={"top_k": st.one_of(st.integers(-2, E + 2), _junk),
              "inverse": st.one_of(st.booleans(), _junk)},
)
_predict = st.one_of(
    _query,
    st.fixed_dictionaries({"queries": st.one_of(st.lists(_query, max_size=3), _junk)},
                          optional={"top_k": st.one_of(st.integers(-2, E + 2), _junk)}),
    st.dictionaries(st.sampled_from(["subject", "relation", "queries", "top_k"]), _junk),
)
_fact = st.lists(st.integers(0, R - 1), min_size=3, max_size=3)
_ingest = st.one_of(
    st.fixed_dictionaries(
        {"events": st.lists(_fact, min_size=1, max_size=3), "timestamp": st.integers(0, 60)},
        optional={"flush": st.booleans()},
    ),
    st.fixed_dictionaries(
        {"events": st.one_of(st.lists(_row, max_size=4), _junk),
         "timestamp": st.one_of(st.integers(0, 60), _junk)},
        optional={"flush": st.one_of(st.booleans(), _junk)},
    ),
    st.fixed_dictionaries(
        {"quads": st.one_of(st.lists(_row, max_size=4), _junk)},
        optional={"flush": st.one_of(st.booleans(), _junk)},
    ),
    st.dictionaries(st.sampled_from(["events", "quads", "timestamp", "flush"]), _junk),
)
_request = st.one_of(
    st.tuples(st.just("/predict"), _predict),
    st.tuples(st.just("/ingest"), _ingest),
    st.tuples(st.just("/decode"), _predict),
)


def _rebuilt(accepted):
    store = _store()
    _warm(store)
    for body in accepted:
        body = parse_ingest(body, E, R)
        if "events" in body:
            store.ingest(body["events"], timestamp=body["timestamp"])
        else:
            store.ingest(body["quads"])
        if body["flush"]:
            store.flush()
    return store


def _content(store):
    stats = {k: v for k, v in store.stats().items() if k != "graph_caches"}
    probe = np.array([[0, 0, 0, 0], [1, 1, 0, 0]], dtype=np.int64)
    return stats, store.window_for(probe).fingerprint(), store.pending_events


class TestFuzz:
    @pytest.mark.parametrize("kind", sorted(FRONTENDS))
    def test_never_5xx_and_store_equals_rebuild(self, kind):
        with FRONTENDS[kind]() as (urls, stores), contextlib.ExitStack() as stack:
            # one persistent connection per endpoint for the whole run
            connections = {url: stack.enter_context(_connect(url)) for url in set(urls.values())}
            self._fuzz(urls, connections, stores)

    def _fuzz(self, urls, connections, stores):
        accepted = []
        sockets = {}

        @settings(max_examples=120, deadline=None, database=None, derandomize=True,
                  suppress_health_check=list(HealthCheck))
        @given(_request)
        def fuzz(request):
            path, body = request
            if path not in urls:
                path = "/predict"  # the single-process server has no /decode
            connection = connections[urls[path]]
            status, request_id, payload = _post(connection, path, body)
            assert status < 500, payload
            if status >= 400:
                assert 400 <= status < 500 and request_id
                assert payload.get("request_id") == request_id
            elif path == "/ingest":
                accepted.append(body)
            # the connection was kept open and still answers in sync
            assert sockets.setdefault(urls[path], connection.sock) is connection.sock
            connection.request("GET", "/health")
            health = connection.getresponse()
            assert health.status == 200 and json.loads(health.read())["status"] == "ok"

        fuzz()
        assert accepted  # the rebuild check below is not vacuous
        assert len(sockets) == len(connections)
        expected = _content(_rebuilt(accepted))
        for store in stores:
            assert _content(store) == expected
