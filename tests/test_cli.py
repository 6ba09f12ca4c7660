"""CLI commands (fast paths only; table/figure commands are bench-scale)."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ["generate", "stats", "train", "table2", "table3",
                        "table4", "figure5", "mechanisms", "eval", "serve",
                        "ingest", "predict"]:
            assert command in text

    def test_predict_requires_url_or_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["predict", "0", "0"])

    def test_ingest_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            main(["ingest", "--url", "http://localhost:1"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_validates_model_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "not_a_model", "unit_tiny"])

    @pytest.mark.parametrize("argv", [
        ["serve", "m.npz", "--batch-window-ms", "0"],
        ["predict", "0", "0", "--checkpoint", "m.npz", "--batch-window-ms", "0"],
        ["cluster-worker", "m.npz", "--shard-index", "0", "--num-shards", "1",
         "--batch-window-ms", "0"],
        ["cluster", "m.npz"],  # `serve --workers N` is the one cluster command
    ])
    def test_removed_batch_window_and_cluster_command_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = str(tmp_path / "data.tsv")
        assert main(["generate", "unit_tiny", out]) == 0
        assert os.path.exists(out)
        capsys.readouterr()
        assert main(["stats", out]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entities"] > 0

    def test_stats_profile_name(self, capsys):
        assert main(["stats", "unit_tiny"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["dataset"] == "unit_tiny"

    def test_train_fast(self, capsys):
        code = main([
            "train", "distmult", "unit_tiny",
            "--dim", "8", "--epochs", "1", "--patience", "1",
        ])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["model"] == "DistMult"
        assert 0 <= row["mrr"] <= 100


class TestNewCommands:
    def test_forecast_fast(self, capsys):
        code = main([
            "forecast", "distmult", "unit_tiny", "0", "0",
            "--dim", "8", "--epochs", "1", "--patience", "1", "--top-k", "3",
        ])
        assert code == 0
        predictions = json.loads(capsys.readouterr().out)
        assert len(predictions) == 3
        assert predictions[0]["rank"] == 1

    def test_degradation_fast(self, capsys):
        code = main([
            "degradation", "distmult", "unit_tiny",
            "--dim", "8", "--epochs", "1", "--patience", "1",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert "history_dependence" in summary


class TestProfileCommand:
    def test_profile_writes_trace_and_table(self, tmp_path, capsys):
        output = str(tmp_path / "profile.json")
        trace = str(tmp_path / "trace.json")
        # enough profiled work that the un-instrumented per-step glue
        # (builder bookkeeping, dict churn) amortises below 10% — at
        # 2 tiny steps the fraction idles right on the 0.9 bar
        code = main([
            "profile", "distmult", "unit_tiny",
            "--steps", "4", "--eval-steps", "1", "--dim", "16",
            "--output", output, "--trace", trace,
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "wall-clock" in table and "attributed" in table
        payload = json.load(open(output))
        assert payload["traceEvents"], "profile trace has no events"
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        # the per-op table must attribute >= 90% of the step wall-clock
        assert payload["otherData"]["attributed_fraction"] >= 0.9
        spans = json.load(open(trace))["traceEvents"]
        assert any(e["name"] == "profile.train_step" for e in spans)

    def test_profile_default_arguments(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "distmult", "--steps", "1", "--dim", "8"]) == 0
        assert os.path.exists("profile.json")

    def test_train_trace_flag(self, tmp_path, capsys):
        trace = str(tmp_path / "train_trace.json")
        code = main([
            "train", "distmult", "unit_tiny",
            "--dim", "8", "--epochs", "1", "--patience", "1",
            "--trace", trace,
        ])
        assert code == 0
        names = {e["name"] for e in json.load(open(trace))["traceEvents"]}
        assert {"train.fit", "train.epoch", "train.step"} <= names

    def test_log_level_flag(self, capsys):
        assert main([
            "--log-level", "INFO",
            "stats", "unit_tiny",
        ]) == 0
        json.loads(capsys.readouterr().out)


class TestLedgerCommands:
    TRAIN = ["train", "distmult", "unit_tiny",
             "--dim", "8", "--epochs", "1", "--patience", "1"]

    def test_train_appends_ledger_record(self, tmp_path, capsys):
        from repro.obs.runs import RunLedger

        ledger_path = str(tmp_path / "ledger.jsonl")
        assert main(self.TRAIN + ["--ledger", ledger_path]) == 0
        row = json.loads(capsys.readouterr().out)
        records = RunLedger(ledger_path).records(kind="train")
        assert len(records) == 1
        record = records[0]
        assert record["run_id"] == row["run_id"]
        assert record["model"] == "distmult"
        assert record["dataset"] == "unit_tiny"
        assert record["schema_version"] == 1
        assert record["metrics"]["mrr"] == pytest.approx(row["mrr"])
        assert record["config_fingerprint"]

    def test_train_trace_path_lands_in_ledger(self, tmp_path, capsys):
        """Satellite: --trace output path is part of the run's record."""
        from repro.obs.runs import RunLedger

        ledger_path = str(tmp_path / "ledger.jsonl")
        trace = str(tmp_path / "trace.json")
        code = main(self.TRAIN + ["--ledger", ledger_path, "--trace", trace])
        assert code == 0
        assert os.path.exists(trace)
        record = RunLedger(ledger_path).records(kind="train")[0]
        assert record["extra"]["trace_path"] == trace

    def test_train_no_ledger_skips_emission(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "ledger.jsonl"))
        assert main(self.TRAIN + ["--no-ledger"]) == 0
        capsys.readouterr()
        assert not os.path.exists(str(tmp_path / "ledger.jsonl"))

    def test_report_renders_trajectory(self, tmp_path, capsys):
        """Acceptance: two train runs + one bench run render as one report."""
        from repro.obs.runs import RunLedger, write_bench_report

        ledger_path = str(tmp_path / "ledger.jsonl")
        for seed in ("3", "4"):
            assert main(self.TRAIN + ["--ledger", ledger_path, "--seed", seed]) == 0
        write_bench_report(
            "encoder_throughput", {"walk_steps_per_second": 99.0},
            ledger=RunLedger(ledger_path),
        )
        capsys.readouterr()
        md = str(tmp_path / "report.md")
        html = str(tmp_path / "report.html")
        code = main(["report", "--ledger", ledger_path,
                     "--markdown", md, "--html", html])
        assert code == 0
        out = capsys.readouterr().out
        assert "train · distmult · unit_tiny" in out
        assert "(2 runs)" in out
        assert "bench · encoder_throughput" in out
        assert "mrr" in out
        assert open(md).read().startswith("# Run ledger report")
        assert open(html).read().startswith("<!doctype html>")

    def test_regress_exit_codes(self, tmp_path, capsys):
        from repro.obs.runs import RunLedger

        ledger_path = str(tmp_path / "ledger.jsonl")
        ledger = RunLedger(ledger_path)
        for mrr in (40.0, 41.0, 40.5, 40.5):
            ledger.append(kind="train", model="distmult", dataset="unit_tiny",
                          metrics={"mrr": mrr})
        assert main(["regress", "--ledger", ledger_path, "--kind", "train"]) == 0
        ledger.append(kind="train", model="distmult", dataset="unit_tiny",
                      metrics={"mrr": 32.0})  # 20% drop
        code = main(["regress", "--ledger", ledger_path, "--kind", "train"])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION: mrr" in captured.err
