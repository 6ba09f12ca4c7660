"""Shared experiment runner: one model on one dataset, scale-aware.

Scales (set via the ``REPRO_BENCH_SCALE`` environment variable):

- ``smoke``  — minutes-level sanity pass (tiny dims, few epochs,
  truncated timelines); the shapes of the tables are produced but the
  numbers are meaningless.
- ``default``— the reported configuration: d=32, enough epochs for the
  model classes to converge on the small synthetic profiles.
- ``full``   — more epochs for the slowest-converging models.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines import MODEL_REGISTRY, build_model
from repro.data import TKGDataset
from repro.training import Trainer


@dataclass(frozen=True)
class BenchScale:
    """Epoch budgets per model class plus global caps."""

    name: str
    dim: int
    static_epochs: int
    vocab_epochs: int
    gnn_epochs: int
    hisres_epochs: int
    patience: int
    max_timestamps: Optional[int] = None


SCALES: Dict[str, BenchScale] = {
    "smoke": BenchScale("smoke", dim=16, static_epochs=2, vocab_epochs=2,
                        gnn_epochs=2, hisres_epochs=2, patience=2, max_timestamps=10),
    "default": BenchScale("default", dim=32, static_epochs=12, vocab_epochs=10,
                          gnn_epochs=20, hisres_epochs=32, patience=8),
    "full": BenchScale("full", dim=32, static_epochs=20, vocab_epochs=15,
                       gnn_epochs=50, hisres_epochs=75, patience=15),
}


def get_scale() -> BenchScale:
    """Resolve the scale from REPRO_BENCH_SCALE (default: 'default')."""
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}") from None


@dataclass
class RunConfig:
    """Per-run hyper-parameters shared across all Table 3 models."""

    dim: int = 32
    history_length: int = 2
    granularity: int = 2
    learning_rate: float = 0.01
    epochs: int = 25
    patience: int = 10
    seed: int = 3
    max_timestamps: Optional[int] = None
    #: ``--sampler`` spec ("fanout=8,4;batch=128") enabling
    #: neighbor-sampled mini-batch epochs; None = full-graph regime.
    sampler: Optional[str] = None
    #: WindowBuilder graph-cache LRU capacity (None = builder default).
    graph_cache_entries: Optional[int] = None


def epochs_for(key: str, scale: BenchScale) -> int:
    """Epoch budget by model class (statics/vocab converge fastest)."""
    spec = MODEL_REGISTRY[key]
    if key == "hisres":
        return scale.hisres_epochs
    if spec.is_static:
        return scale.static_epochs
    if spec.requirements.vocabulary and not spec.requirements.recent_snapshots:
        return scale.vocab_epochs
    return scale.gnn_epochs


def run_model_on_dataset(
    key: str,
    dataset: TKGDataset,
    config: Optional[RunConfig] = None,
    save_path: Optional[str] = None,
    ledger=None,
    health=None,
    extra_record: Optional[Dict] = None,
    **model_kwargs,
) -> Dict[str, object]:
    """Train + evaluate one registry model; return a metrics row.

    Returns a dict with ``model``, ``dataset``, time-filtered test
    metrics (scaled by 100 like the paper), the best validation MRR,
    and the wall time.  When ``save_path`` is given, the trained model
    is checkpointed there with everything the serving layer needs to
    rebuild it (registry key, vocabulary sizes, window configuration,
    metrics) — see :meth:`repro.serving.InferenceEngine.from_checkpoint`.

    When ``ledger`` (a :class:`repro.obs.runs.RunLedger`) is given, one
    ``kind="train"`` record — config fingerprint, seed, final metrics
    and gauges, plus any ``extra_record`` fields (trace path,
    checkpoint path) — is appended, and the row carries its ``run_id``.
    ``health`` is forwarded to the :class:`~repro.training.Trainer`
    (``False`` disables the watchdogs).
    """
    config = config or RunConfig()
    spec = MODEL_REGISTRY[key]
    model = build_model(key, dataset.num_entities, dataset.num_relations,
                        dim=config.dim, **model_kwargs)
    # HisRES prefers a longer window (its inter-snapshot granularity
    # needs several snapshots to merge); sweeps showed l=4 vs l=2 for
    # the single-granularity GNN baselines at this scale
    history_length = max(config.history_length, 4) if key == "hisres" else config.history_length
    window_flags = spec.window_flags()
    trainer = Trainer(
        model,
        dataset,
        history_length=history_length,
        granularity=config.granularity,
        **window_flags,
        learning_rate=config.learning_rate,
        seed=config.seed,
        health=health,
        sampler=config.sampler,
        graph_cache_entries=config.graph_cache_entries,
    )
    fit = trainer.fit(
        epochs=config.epochs,
        patience=config.patience,
        max_timestamps=config.max_timestamps,
    )
    result = trainer.evaluate("test", max_timestamps=config.max_timestamps)
    row = {
        "model": spec.name,
        "dataset": dataset.name,
        "mrr": result.mrr * 100,
        "hits@1": result.hits(1) * 100,
        "hits@3": result.hits(3) * 100,
        "hits@10": result.hits(10) * 100,
        "valid_mrr": fit.best_valid_mrr * 100,
        "best_epoch": fit.best_epoch,
        "wall_time_s": fit.wall_time,
    }
    if save_path is not None:
        from repro.nn.serialization import save_checkpoint

        metadata = {
            "format": 1,
            "model": key,
            "model_name": spec.name,
            "dataset": dataset.name,
            "num_entities": dataset.num_entities,
            "num_relations": dataset.num_relations,
            "dim": config.dim,
            "window": trainer.window_config.to_dict(),
            "train_config": {
                "learning_rate": config.learning_rate,
                "epochs": config.epochs,
                "patience": config.patience,
                "seed": config.seed,
            },
            "metrics": {k: (float(v) if isinstance(v, float) else v) for k, v in row.items()},
        }
        save_checkpoint(model, save_path, metadata=metadata)
        row["checkpoint"] = save_path
    if ledger is not None:
        gauges = trainer.final_gauges()
        record = ledger.append(
            kind="train",
            run_id=trainer.run_id,
            model=key,
            dataset=dataset.name,
            seed=config.seed,
            config={
                "dim": config.dim,
                "history_length": history_length,
                "granularity": config.granularity,
                "learning_rate": config.learning_rate,
                "epochs": config.epochs,
                "patience": config.patience,
                "use_global": window_flags["use_global"],
                "sampler": config.sampler,
            },
            metrics={
                "mrr": row["mrr"],
                "hits@1": row["hits@1"],
                "hits@3": row["hits@3"],
                "hits@10": row["hits@10"],
                "valid_mrr": row["valid_mrr"],
                "best_epoch": row["best_epoch"],
                "wall_time_s": row["wall_time_s"],
                "loss": gauges["loss"],
                "grad_norm": gauges["grad_norm"],
            },
            extra=dict(extra_record or {}, checkpoint=save_path),
        )
        row["run_id"] = record["run_id"]
    return row


def format_rows(rows, columns=("model", "mrr", "hits@1", "hits@3", "hits@10")) -> str:
    """Render metric rows as an aligned text table."""
    header = " | ".join(f"{c:>10}" for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for c in columns:
            value = row[c]
            cells.append(f"{value:>10.2f}" if isinstance(value, float) else f"{value!s:>10}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)
