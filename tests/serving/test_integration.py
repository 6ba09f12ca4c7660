"""End-to-end offline flow: train --save -> serve -> ingest -> predict.

Covers the acceptance loop of the serving subsystem: a model trained
and checkpointed through the CLI is served over HTTP by the `serve`
command (run as a real subprocess), fed new events with `ingest`, and
queried with `predict`; `/stats` must show request counts, latency
percentiles, and cache hits.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.serving import ServingClient, ServingError


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("e2e") / "model.npz")
    code = main([
        "train", "distmult", "unit_tiny",
        "--dim", "8", "--epochs", "1", "--patience", "1",
        "--save", path,
    ])
    assert code == 0
    assert os.path.exists(path)
    return path


class TestTrainSaveEval:
    def test_train_reports_checkpoint(self, checkpoint, capsys):
        # metrics of eval --load-checkpoint must reproduce the saved model
        assert main(["eval", "unit_tiny", "--load-checkpoint", checkpoint]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["split"] == "test"
        assert 0 <= row["mrr"] <= 100
        assert row["model"] == "DistMult"

    def test_offline_predict_from_checkpoint(self, checkpoint, capsys):
        assert main([
            "predict", "3", "1",
            "--checkpoint", checkpoint, "--warmup", "unit_tiny", "--top-k", "4",
        ]) == 0
        result = json.loads(capsys.readouterr().out)
        assert len(result["predictions"]) == 4
        assert result["predictions"][0]["rank"] == 1


@pytest.fixture(scope="module")
def live_server(checkpoint):
    """`python -m repro.cli serve` as a real subprocess on an OS-picked port."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", checkpoint,
         "--port", "0", "--warmup", "unit_tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    line = process.stdout.readline()  # "serving distmult at http://... "
    assert "http://" in line, f"server did not start: {line!r}"
    url = line.split("at ", 1)[1].split()[0]
    # wait until it actually answers
    client = ServingClient(url, timeout=10)
    deadline = time.monotonic() + 30
    while True:
        try:
            client.health()
            break
        except ServingError:
            if time.monotonic() > deadline:
                process.kill()
                raise
            time.sleep(0.1)
    yield url
    process.terminate()
    process.wait(timeout=10)


class TestServeLoop:
    def test_health_over_http(self, live_server):
        body = ServingClient(live_server).health()
        assert body["status"] == "ok"
        assert body["model"] == "distmult"

    def test_cli_ingest_then_predict(self, live_server, capsys):
        t = ServingClient(live_server).health()["current_time"] + 1
        code = main([
            "ingest", "--url", live_server,
            "--events", json.dumps([[0, 1, 2], [3, 0, 4]]),
            "--timestamp", str(t), "--flush",
        ])
        assert code == 0
        ingested = json.loads(capsys.readouterr().out)
        assert ingested["accepted"] == 2
        assert ingested["flushed"] is True

        code = main(["predict", "3", "1", "--url", live_server, "--top-k", "5"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert len(result["predictions"]) == 5
        ranks = [p["rank"] for p in result["predictions"]]
        assert ranks == [1, 2, 3, 4, 5]

    def test_cli_ingest_tsv(self, live_server, tmp_path, capsys):
        t = ServingClient(live_server).health()["current_time"] + 1
        tsv = tmp_path / "events.tsv"
        tsv.write_text(f"1\t2\t3\t{t}\n4\t0\t5\t{t}\n")
        code = main(["ingest", "--url", live_server, "--tsv", str(tsv), "--flush"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["accepted"] == 2

    def test_stats_show_counts_latency_and_cache_hits(self, live_server, capsys):
        client = ServingClient(live_server)
        client.predict(7, 2)
        client.predict(7, 2)  # identical query -> cache hit
        stats = client.stats()
        predict = stats["server"]["endpoints"]["POST /predict"]
        assert predict["requests"] >= 2
        assert predict["latency_ms"]["p50"] >= 0
        assert predict["latency_ms"]["p99"] >= predict["latency_ms"]["p50"]
        assert stats["engine"]["cache"]["hits"] >= 1
        assert stats["engine"]["queries_served"] >= 2
        assert stats["engine"]["store"]["total_events"] > 0
