"""Extension benchmarks beyond the paper's tables.

1. Global-graph pruning (the paper's §5 future work): sweep the
   ``global_max_history`` recency cutoff and measure accuracy vs the
   size of the globally relevant graph.
2. Time-encoding ablation (a design choice DESIGN.md flags): HisRES
   with and without the cosine periodic time code.
3. Joint-loss coefficient alpha sweep (the paper fixes 0.7).
"""

import time

import numpy as np
import pytest

from repro.core import HisRES, HisRESConfig
from repro.data import generate_dataset
from repro.experiments.runner import get_scale
from repro.training import Trainer

from benchmarks.conftest import emit_bench, print_table

DATASET = "icews14s_small"


def _train_eval(config: HisRESConfig, dataset, **trainer_kw):
    scale = get_scale()
    model = HisRES(dataset.num_entities, dataset.num_relations, config)
    trainer = Trainer(
        model,
        dataset,
        history_length=4,
        granularity=config.granularity,
        use_global=config.use_global,
        learning_rate=0.01,
        seed=3,
        **trainer_kw,
    )
    trainer.fit(
        epochs=scale.gnn_epochs,
        patience=scale.patience,
        max_timestamps=scale.max_timestamps,
    )
    return trainer.evaluate("test", max_timestamps=scale.max_timestamps)


def test_global_pruning_sweep(benchmark):
    """Accuracy vs recency cutoff for the globally relevant graph."""
    scale = get_scale()
    dataset = generate_dataset(DATASET)

    def sweep():
        rows = []
        for cutoff in (5, 20, None):
            config = HisRESConfig(embedding_dim=scale.dim)
            start = time.perf_counter()
            result = _train_eval(config, dataset, global_max_history=cutoff)
            rows.append(
                {
                    "max_history": str(cutoff),
                    "mrr": result.mrr * 100,
                    "hits@10": result.hits(10) * 100,
                    "wall_time_s": time.perf_counter() - start,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Extension: global relevance pruning (paper SS5 future work)",
        rows,
        columns=("max_history", "mrr", "hits@10", "wall_time_s"),
    )
    emit_bench(
        "ablation_global_pruning",
        {f"max_history_{row['max_history']}": {"mrr": row["mrr"], "hits@10": row["hits@10"]}
         for row in rows},
    )
    assert all(row["mrr"] > 0 for row in rows)


def test_time_encoding_ablation(benchmark):
    scale = get_scale()
    dataset = generate_dataset(DATASET)

    def run():
        rows = []
        for use_te in (True, False):
            config = HisRESConfig(embedding_dim=scale.dim, use_time_encoding=use_te)
            result = _train_eval(config, dataset)
            rows.append({"time_encoding": str(use_te), "mrr": result.mrr * 100,
                         "hits@1": result.hits(1) * 100})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Extension: time-encoding ablation", rows,
                columns=("time_encoding", "mrr", "hits@1"))
    emit_bench(
        "ablation_time_encoding",
        {f"time_encoding_{row['time_encoding']}": {"mrr": row["mrr"], "hits@1": row["hits@1"]}
         for row in rows},
    )
    assert len(rows) == 2


def test_alpha_sweep(benchmark):
    scale = get_scale()
    dataset = generate_dataset(DATASET)

    def run():
        rows = []
        for alpha in (0.5, 0.7, 1.0):
            config = HisRESConfig(embedding_dim=scale.dim, alpha=alpha)
            result = _train_eval(config, dataset)
            rows.append({"alpha": alpha, "mrr": result.mrr * 100})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Extension: joint-loss alpha sweep (paper fixes 0.7)",
                rows, columns=("alpha", "mrr"))
    emit_bench(
        "ablation_alpha_sweep",
        {f"alpha_{row['alpha']}": {"mrr": row["mrr"]} for row in rows},
    )
    assert len(rows) == 3
