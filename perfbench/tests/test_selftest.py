"""Tiny-shape self-test of the benchmark.

    python -m pytest perfbench/tests -q

Runs every workload on the ``tiny`` shape for a couple of seconds and
checks that every metric is printed with its unit, that the traced run
prints every per-layer metric, that a deliberately wrong reference
answer fails the run, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics as M  # noqa: E402

SEED = 5
NAMED = {
    "offline": ("setup_s", "peak_rss_mb", "failed_ratio", "train_queries_per_s",
                "train_sampled_queries_per_s", "eval_queries_per_s", "eval_copy_queries_per_s"),
    "serve": ("setup_s", "peak_rss_mb", "failed_ratio", "predict_p50_ms", "ingest_p50_ms",
              "predict_capacity_qps", "offered_rate_rps", "batch_share", "repeat_share"),
}
NAMED["serve-cluster"] = NAMED["serve"]


def bench(workload, trace=0, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", "--trace", str(trace), "--shape", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module", params=("offline", "serve", "serve-cluster"))
def runs(request):
    workload = request.param
    for row in (ROOT / ".perfbench" / "rows").glob(f"{workload}-tiny-seed{SEED}-*.json"):
        row.unlink()
    untraced = bench(workload, 0)
    traced = bench(workload, 1)
    return workload, untraced, traced


def test_untraced_run_prints_end_to_end_metrics(runs):
    workload, untraced, _ = runs
    assert untraced.returncode == 0, untraced.stderr
    result, lines = result_of(untraced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _, _ in M.END_TO_END}
    units = {name: unit for name, unit, _ in M.END_TO_END}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
    printed = {}
    for line in lines:
        head, _, body = line.partition(": ")
        printed[head.split(" ", 1)[1]] = json.loads(body)
    for name in NAMED[workload]:
        assert printed[name]["unit"], name
        assert "n" in printed[name], name
    tails = [n for n in printed if n.startswith("predict_p") and n != "predict_p50_ms"]
    assert tails or workload == "offline"


def test_traced_run_prints_every_layer_metric(runs):
    workload, _, traced = runs
    assert traced.returncode == 0, traced.stderr
    result, _ = result_of(traced)
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _, _ in M.PER_LAYER}
    units = {name: unit for name, unit, _ in M.PER_LAYER}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < values["trace.coverage"] <= 1.0 + 1e-9
    assert values["trace.overhead"] > 0
    exercised = {
        "offline": ("train.step_ms", "nn.forward_ms", "nn.backward_ms", "encode.ms",
                    "decode.ms", "window.build_ms", "sampler.induce_ms", "eval.rank_ms"),
        "serve": ("http.server_ms", "http.transport_ms", "engine.predict_batch_p50_ms",
                  "engine.ingest_ms", "encode.ms", "window.build_ms"),
        "serve-cluster": ("http.server_ms", "router.scatter_ms", "shard.decode_ms",
                          "engine.predict_batch_p50_ms", "encode.ms"),
    }[workload]
    for name in exercised:
        assert values[name] > 0, name


@pytest.mark.parametrize("workload", ("offline", "serve", "serve-cluster"))
def test_wrong_reference_answer_fails_the_run(workload):
    trace = 0
    if workload == "offline":
        # the reference is the same seed's run in the other trace mode
        assert bench(workload, 0).returncode == 0
        trace = 1
    proc = bench(workload, trace, "--corrupt-reference")
    assert proc.returncode != 0
    result, _ = result_of(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("serve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
