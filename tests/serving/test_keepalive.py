"""Persistent client connections and the server rules that keep them in sync.

``ServingClient`` keeps one HTTP/1.1 connection per thread.  The server
must close a connection whose request body it never read (the body would
otherwise be parsed as the next request), must shut established
connections down on ``server_close()``, and closes idle ones after a
timeout; the client reconnects once when a reused socket turns out to be
closed, and never sends a request twice after it was answered.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines import build_model
from repro.core.config import WindowConfig
from repro.serving import (
    InferenceEngine,
    OnlineHistoryStore,
    ServingClient,
    ServingError,
    ShardEngine,
    launch_local_cluster,
    partition_entities,
    serve_in_thread,
)
from repro.serving import client as client_module
from repro.serving import server as server_module

E, R = 20, 4


def _store():
    store = OnlineHistoryStore(E, R, window_config=WindowConfig(history_length=2, use_global=False))
    for t in range(3):
        store.ingest([[t, 0, t + 1], [t + 2, 1, t]], timestamp=t)
    store.flush()
    return store


@pytest.fixture
def served():
    engine = InferenceEngine(
        build_model("distmult", E, R, dim=4), _store(), model_key="distmult",
    )
    server, _ = serve_in_thread(engine)
    try:
        yield server, engine
    finally:
        server.shutdown()
        server.server_close()


def _socket(client):
    return client._local.connection.sock


@pytest.fixture
def connects(monkeypatch):
    """Count the TCP connects every ``ServingClient`` makes."""
    calls = []
    original = client_module._Connection.connect

    def connect(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(client_module._Connection, "connect", connect)
    return calls


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


class TestReuse:
    def test_requests_share_one_connection(self, served, connects):
        server, _ = served
        client = ServingClient(server.url)
        client.health()
        sock = _socket(client)
        client.predict(0, 0, top_k=3)
        client.ingest([[0, 0, 1]], timestamp=5)
        assert _socket(client) is sock
        assert len(connects) == 1

    def test_each_thread_gets_its_own_connection(self, served):
        server, _ = served
        client = ServingClient(server.url)
        client.health()
        seen = []
        thread = threading.Thread(target=lambda: (client.health(), seen.append(_socket(client))))
        thread.start()
        thread.join()
        assert seen and seen[0] is not _socket(client)


    def test_concurrent_threads_share_one_client(self, served, connects):
        """More threads than cores on one client: every answer is the
        thread's own, and each thread opens exactly one connection."""
        server, _ = served
        client = ServingClient(server.url)
        errors, answers = [], {}
        interval = sys.getswitchinterval()

        def run(subject):
            try:
                for _ in range(10):
                    answer = client.predict(subject, 1, top_k=2)
                    assert answer["subject"] == subject
                answers[subject] = answer
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in range(8)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and sorted(answers) == list(range(8))
        assert len(connects) == 8


class TestUnreadBodyClosesConnection:
    def test_next_request_after_draining_503(self, served):
        server, _ = served
        client = ServingClient(server.url)
        client.health()
        server.begin_drain()
        with pytest.raises(ServingError) as exc:
            client.predict(0, 0)
        assert exc.value.status == 503
        assert client.health()["status"] == "draining"
        assert client.stats()["server"]

    def test_next_request_after_oversized_body_400(self, served, monkeypatch):
        server, _ = served
        client = ServingClient(server.url)
        client.health()
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        with pytest.raises(ServingError) as exc:
            client.predict_many([{"subject": 0, "relation": 0}] * 8)
        assert exc.value.status == 400 and "too large" in str(exc.value)
        assert client.health()["status"] == "ok"

    def test_next_request_after_unknown_post_route(self, served):
        server, _ = served
        client = ServingClient(server.url)
        with pytest.raises(ServingError) as exc:
            client.post("/nope", {"subject": 0})
        assert exc.value.status == 404
        assert client.health()["status"] == "ok"


class TestServerClose:
    def test_server_close_shuts_established_connections(self, served):
        server, _ = served
        client = ServingClient(server.url)
        client.health()
        server.shutdown()
        server.server_close()
        with pytest.raises(ServingError) as exc:
            client.health()
        assert exc.value.status == 0

    def test_killed_worker_is_unreachable(self):
        model = build_model("distmult", E, R, dim=4)
        engines = [
            ShardEngine(model, _store(), shard, model_key="distmult")
            for shard in partition_entities(E, 2)
        ]
        cluster = launch_local_cluster(engines)
        try:
            worker = ServingClient(cluster.worker_servers[1].url)
            assert worker.health()["status"] == "ok"
            router = ServingClient(cluster.url)
            assert router.health()["status"] == "ok"
            cluster.kill_worker(1)
            with pytest.raises(ServingError) as exc:
                worker.health()
            assert exc.value.status == 0
            assert router.health()["status"] == "degraded"
        finally:
            cluster.stop()


class TestReconnect:
    def test_idle_close_reconnects_once_and_ingest_applies_once(self, monkeypatch, connects):
        monkeypatch.setattr(server_module.BaseJSONHandler, "timeout", 0.2)
        engine = InferenceEngine(
            build_model("distmult", E, R, dim=4), _store(), model_key="distmult",
        )
        server, _ = serve_in_thread(engine)
        try:
            client = ServingClient(server.url)
            client.health()
            # the server closes the idle kept-alive connection
            _wait_for(lambda: not server._open_sockets)
            result = client.ingest([[1, 0, 2], [3, 1, 4]], timestamp=7, flush=True)
            assert len(connects) == 2
            assert result["accepted"] == 2 and result["flushed"]
        finally:
            server.shutdown()
            server.server_close()
        rebuilt = _store()
        rebuilt.ingest([[1, 0, 2], [3, 1, 4]], timestamp=7)
        rebuilt.flush()
        probe = np.array([[1, 0, 0, 0], [3, 1, 0, 0]], dtype=np.int64)
        assert engine.store.stats()["total_events"] == rebuilt.stats()["total_events"]
        assert engine.store.window_version == rebuilt.window_version
        assert engine.store.window_for(probe).fingerprint() == rebuilt.window_for(probe).fingerprint()

    def test_fresh_connection_failure_is_not_retried(self, served, connects):
        server, _ = served
        url = server.url
        server.shutdown()
        server.server_close()
        client = ServingClient(url)
        with pytest.raises(ServingError) as exc:
            client.health()
        assert exc.value.status == 0
        assert len(connects) == 1
