"""Tests for ``repro.obs.runs``: the append-only run ledger."""

import json
import os

import pytest

from repro.obs.runs import (
    SCHEMA_VERSION,
    RunLedger,
    build_record,
    config_fingerprint,
    default_ledger_path,
    flatten_metrics,
    git_sha,
    new_run_id,
    write_bench_report,
)


@pytest.fixture()
def ledger(tmp_path):
    return RunLedger(str(tmp_path / "ledger.jsonl"))


def test_build_record_envelope():
    record = build_record(
        "train",
        model="hisres",
        dataset="icews14s_small",
        seed=7,
        config={"dim": 16, "lr": 0.01},
        metrics={"mrr": 0.41, "best_epoch": 3},
        extra={"checkpoint": "ckpt.npz", "dropped": None},
    )
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["kind"] == "train"
    assert record["model"] == "hisres"
    assert record["dataset"] == "icews14s_small"
    assert record["seed"] == 7
    assert record["metrics"]["mrr"] == pytest.approx(0.41)
    assert record["config_fingerprint"] == config_fingerprint({"dim": 16, "lr": 0.01})
    assert "dropped" not in record["extra"]
    assert record["run_id"]
    assert record["timestamp"]
    assert record["dtype"] == "float64"


def test_config_fingerprint_is_order_invariant():
    a = config_fingerprint({"dim": 16, "lr": 0.01})
    b = config_fingerprint({"lr": 0.01, "dim": 16})
    c = config_fingerprint({"lr": 0.02, "dim": 16})
    assert a == b
    assert a != c
    assert len(a) == 12
    assert config_fingerprint(None) is None
    assert config_fingerprint({}) is None


def test_new_run_id_is_unique_and_sortable():
    ids = {new_run_id() for _ in range(50)}
    assert len(ids) == 50
    assert all("-" in rid for rid in ids)


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "deadbee")
    assert git_sha() == "deadbee"


def test_append_and_read_round_trip(ledger):
    ledger.append(kind="train", model="hisres", dataset="d1", metrics={"mrr": 0.4})
    ledger.append(kind="eval", model="hisres", dataset="d1", metrics={"mrr": 0.39})
    ledger.append(kind="train", model="cygnet", dataset="d2", metrics={"mrr": 0.2})

    assert len(ledger) == 3
    trains = ledger.records(kind="train")
    assert [r["model"] for r in trains] == ["hisres", "cygnet"]
    assert ledger.records(model="hisres", dataset="d1")[0]["kind"] == "train"
    assert ledger.counts_by_kind() == {"train": 2, "eval": 1}
    assert [r["kind"] for r in ledger.last(2)] == ["eval", "train"]


def test_read_skips_corrupt_lines(ledger):
    ledger.append(kind="train", metrics={"mrr": 0.4})
    with open(ledger.path, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
        handle.write('"a bare string"\n')
        handle.write("\n")
    ledger.append(kind="train", metrics={"mrr": 0.5})

    records = ledger.records()
    assert len(records) == 2
    assert ledger.skipped_lines == 2


def test_append_rejects_record_plus_fields(ledger):
    with pytest.raises(TypeError):
        ledger.append({"kind": "train"}, model="hisres")


def test_flatten_metrics_merges_metrics_and_bench():
    record = build_record(
        "bench",
        metrics={"mrr": 0.4},
        bench={
            "name": "encoder",
            "measurements": {
                "walk_steps_per_second": 120.0,
                "nested": {"p50_ms": 1.5, "label": "skipme"},
                "flag": True,
            },
        },
    )
    flat = flatten_metrics(record)
    assert flat["mrr"] == pytest.approx(0.4)
    assert flat["walk_steps_per_second"] == pytest.approx(120.0)
    assert flat["nested.p50_ms"] == pytest.approx(1.5)
    assert "nested.label" not in flat
    assert "flag" not in flat


def test_default_ledger_path_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_RUN_LEDGER", "/tmp/custom.jsonl")
    assert default_ledger_path() == "/tmp/custom.jsonl"
    monkeypatch.delenv("REPRO_RUN_LEDGER")
    assert default_ledger_path() == os.path.join("runs", "ledger.jsonl")


def test_write_bench_report_writes_artifact_and_ledger(tmp_path):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    artifact = tmp_path / "BENCH_demo.json"
    record = write_bench_report(
        "demo_bench",
        {"steps_per_second": 42.0},
        path=str(artifact),
        ledger=ledger,
        dataset="icews14s_small",
        seed=7,
        config={"scale": "smoke"},
    )
    assert record["kind"] == "bench"
    assert record["bench"]["name"] == "demo_bench"

    on_disk = json.loads(artifact.read_text())
    assert on_disk["schema_version"] == SCHEMA_VERSION
    assert on_disk["bench"]["measurements"]["steps_per_second"] == 42.0
    assert on_disk["git_sha"] == record["git_sha"]
    assert on_disk["seed"] == 7

    rows = ledger.records(kind="bench")
    assert len(rows) == 1
    assert rows[0]["run_id"] == record["run_id"]


def test_write_bench_report_ledger_false_skips_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "default.jsonl"))
    write_bench_report("quiet", {"x": 1.0}, ledger=False)
    assert not (tmp_path / "default.jsonl").exists()
