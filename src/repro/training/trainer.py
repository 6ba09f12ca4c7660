"""Training loop: chronological walk with per-timestamp updates.

Follows the RE-GCN/HisRES regime: one optimisation step per training
snapshot, predicting its facts (raw + inverse) from the preceding
history, then absorbing the snapshot.  Validation tracks time-filtered
MRR for early stopping.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data.dataset import TKGDataset
from repro.nn import Adam, clip_grad_norm_
from repro.core.config import WindowConfig
from repro.core.execution import EncoderStateCache, ExecutionPlan, ScopedExecutionPlan
from repro.obs.health import HealthMonitor
from repro.obs.logging import configure_logging, log_event
from repro.obs.metrics import get_registry
from repro.obs.runs import new_run_id
from repro.obs.trace import span
from repro.training.evaluator import TimelineEvaluator
from repro.training.loader import QueryBatchLoader, SamplerConfig
from repro.training.metrics import RankingResult
from repro.training.seeding import seed_everything

logger = logging.getLogger(__name__)


@dataclass
class TrainResult:
    """Outcome of a training run."""

    epoch_losses: List[float] = field(default_factory=list)
    valid_mrrs: List[float] = field(default_factory=list)
    best_valid_mrr: float = 0.0
    best_epoch: int = -1
    wall_time: float = 0.0


class Trainer:
    """Fits any window-consuming TKG model on a dataset.

    The model must speak the encode/decode protocol (see
    :mod:`repro.core.execution`) and expose ``loss(window, queries)``,
    ``parameters()``, ``train()``/``eval()``, and ``zero_grad()``.
    """

    def __init__(
        self,
        model,
        dataset: TKGDataset,
        history_length: int = 4,
        granularity: int = 2,
        use_global: bool = True,
        global_max_history: Optional[int] = None,
        track_vocabulary: bool = False,
        learning_rate: float = 0.001,
        grad_clip: float = 1.0,
        weight_decay: float = 0.0,
        scheduler_factory: Optional[Callable] = None,
        seed: int = 0,
        health: Optional[HealthMonitor] = None,
        run_id: Optional[str] = None,
        sampler: Optional[SamplerConfig] = None,
        graph_cache_entries: Optional[int] = None,
    ):
        self.model = model
        self.dataset = dataset
        self.seed = seed
        self.run_id = run_id or new_run_id()
        seed_everything(seed)
        self.window_config = WindowConfig(
            history_length=history_length,
            granularity=granularity,
            use_global=use_global,
            track_vocabulary=track_vocabulary,
            global_max_history=global_max_history,
            cache_entries=graph_cache_entries,
        )
        self.window_builder = self.window_config.build(
            dataset.num_entities, dataset.num_relations
        )
        self.optimizer = Adam(model.parameters(), lr=learning_rate, weight_decay=weight_decay)
        self.scheduler = scheduler_factory(self.optimizer) if scheduler_factory else None
        self.grad_clip = grad_clip
        self.evaluator = TimelineEvaluator(dataset)
        # Evaluations between epochs share one plan; cached encoder
        # states are keyed on the model version, which train_epoch bumps
        # after optimising, so stale states are never decoded.
        self.state_cache = EncoderStateCache(owner="trainer")
        self.plan = ExecutionPlan(model, cache=self.state_cache)
        # Neighbor-sampled training: encode only the fan-in closure of
        # each query mini-batch (repro.graphs.sampler).  None keeps the
        # classic one-step-per-snapshot full-graph regime.
        self.sampler_config = SamplerConfig.parse(sampler) if sampler is not None else None
        if self.sampler_config is not None:
            self.scoped_plan: Optional[ScopedExecutionPlan] = ScopedExecutionPlan(
                self.plan, self.sampler_config.build(owner="trainer")
            )
            self.batch_loader: Optional[QueryBatchLoader] = QueryBatchLoader(
                batch_size=self.sampler_config.batch_size, seed=self.sampler_config.seed
            )
        else:
            self.scoped_plan = None
            self.batch_loader = None
        # Health watchdogs ride along by default (NaN/Inf aborts; trend
        # events warn).  Pass ``health=False`` to opt out entirely, or a
        # configured HealthMonitor to set policies and a bundle dir.
        if health is False:
            self.health: Optional[HealthMonitor] = None
        else:
            self.health = health or HealthMonitor(
                run_id=self.run_id,
                context={
                    "history_length": history_length,
                    "granularity": granularity,
                    "use_global": use_global,
                    "learning_rate": learning_rate,
                    "grad_clip": grad_clip,
                    "seed": seed,
                },
            )
        self._epoch_index = 0
        gauges = get_registry()
        self._gauge_loss = gauges.gauge(
            "repro_train_epoch_loss", "Mean training loss of the latest epoch."
        )
        self._gauge_mrr = gauges.gauge(
            "repro_train_valid_mrr", "Validation MRR of the latest evaluated epoch."
        )
        self._gauge_grad_norm = gauges.gauge(
            "repro_train_grad_norm", "Mean pre-clip gradient norm of the latest epoch."
        )
        self._gauge_update_ratio = gauges.gauge(
            "repro_train_param_update_ratio",
            "||param delta|| / ||param|| on the first optimised step of the latest epoch.",
        )

    # ------------------------------------------------------------------
    def _update_ratio(self, before: List[np.ndarray]) -> float:
        """Relative parameter movement ``||delta|| / ||theta||`` of one step."""
        delta_sq = theta_sq = 0.0
        for prev, param in zip(before, self.model.parameters()):
            delta_sq += float(((param.data - prev) ** 2).sum())
            theta_sq += float((param.data**2).sum())
        return float(np.sqrt(delta_sq) / max(np.sqrt(theta_sq), 1e-12))

    def final_gauges(self) -> Dict[str, float]:
        """Latest training gauges — the ledger's ``metrics`` tail."""
        return {
            "loss": self._gauge_loss.value,
            "valid_mrr": self._gauge_mrr.value,
            "grad_norm": self._gauge_grad_norm.value,
            "update_ratio": self._gauge_update_ratio.value,
        }

    def _optimise_step(
        self,
        plan,
        window,
        queries: np.ndarray,
        t: int,
        losses: List[float],
        grad_norms: List[float],
    ) -> None:
        """One optimisation step (shared by full and sampled epochs)."""
        self.model.zero_grad()
        loss = plan.loss(window, queries)
        loss.backward()
        grad_norms.append(clip_grad_norm_(self.model.parameters(), self.grad_clip))
        first_step = not losses
        before = [p.data.copy() for p in self.model.parameters()] if first_step else None
        self.optimizer.step()
        if first_step:
            self._gauge_update_ratio.set(self._update_ratio(before))
        losses.append(loss.item())
        if self.health is not None:
            self.health.observe_step(
                losses[-1],
                grad_norm=grad_norms[-1],
                step=int(t),
                epoch=self._epoch_index,
            )

    def train_epoch(self, max_timestamps: Optional[int] = None) -> float:
        """One pass over the training timeline; returns mean loss.

        With a sampler configured, each timestamp's queries are split
        into deterministic shuffled mini-batches and every batch
        optimises against the scoped plan — the encode runs on the
        batch's sampled fan-in closure instead of the full graph.
        """
        self.model.train()
        builder = self.window_builder
        builder.reset()
        losses: List[float] = []
        grad_norms: List[float] = []
        items = sorted(self.dataset.train.facts_by_time().items())
        if max_timestamps is not None:
            items = items[:max_timestamps]
        for t, quads in items:
            queries = self.evaluator.queries_with_inverse(quads)
            if builder.history_filled:
                if self.scoped_plan is not None:
                    for batch in self.batch_loader.batches(
                        queries, epoch=self._epoch_index, timestamp=int(t)
                    ):
                        with span("train.step", t=int(t), queries=len(batch), sampled=True):
                            # per-batch window: G^H_t is query-conditioned,
                            # so each mini-batch gets its own global graph
                            window = builder.window_for(batch, prediction_time=t)
                            self._optimise_step(
                                self.scoped_plan, window, batch, t, losses, grad_norms
                            )
                else:
                    with span("train.step", t=int(t), queries=len(queries)):
                        window = builder.window_for(queries, prediction_time=t)
                        self._optimise_step(self.plan, window, queries, t, losses, grad_norms)
            builder.absorb(quads)
        if grad_norms:
            self._gauge_grad_norm.set(float(np.mean(grad_norms)))
        self._epoch_index += 1
        if losses:
            # weights moved in place: invalidate cached encoder states
            self.model.bump_version()
        return float(np.mean(losses)) if losses else 0.0

    # ------------------------------------------------------------------
    def evaluate(
        self,
        split: str = "valid",
        max_timestamps: Optional[int] = None,
        sampled: bool = False,
    ) -> RankingResult:
        """Time-filtered metrics on 'valid' or 'test'.

        ``sampled=True`` routes the evaluation walk through the
        trainer's :class:`~repro.core.execution.ScopedExecutionPlan`
        (requires a ``sampler=`` config): windows encode on sampled
        fan-in closures, with exhaustive fanouts reproducing the
        full-plan walk bitwise.
        """
        self.model.eval()
        plan = self.plan
        if sampled:
            if self.scoped_plan is None:
                raise ValueError("sampled evaluation needs a sampler= trainer config")
            plan = self.scoped_plan
        if split == "valid":
            warmup = (self.dataset.train,)
            eval_split = self.dataset.valid
        elif split == "test":
            warmup = (self.dataset.train, self.dataset.valid)
            eval_split = self.dataset.test
        elif split == "train":
            warmup = ()
            eval_split = self.dataset.train
        else:
            raise ValueError(f"unknown split {split!r}")
        return self.evaluator.evaluate_walk(
            self.model,
            self.window_builder,
            eval_split,
            warmup_splits=warmup,
            max_timestamps=max_timestamps,
            plan=plan,
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        epochs: int = 5,
        patience: Optional[int] = None,
        eval_every: int = 1,
        max_timestamps: Optional[int] = None,
        verbose: bool = False,
        callback: Optional[Callable[[int, float, Optional[float]], None]] = None,
    ) -> TrainResult:
        """Train with optional early stopping on validation MRR.

        Progress is reported through the ``repro.training`` logger as
        structured ``epoch`` events (``verbose=True`` attaches a stream
        handler at INFO if logging is not configured yet) and mirrored
        onto the metrics registry gauges, replacing the old ``print``.
        """
        if verbose:
            configure_logging("INFO")
        result = TrainResult()
        best_state = None
        start = time.perf_counter()
        stale = 0
        with span("train.fit", epochs=epochs):
            for epoch in range(epochs):
                with span("train.epoch", epoch=epoch):
                    loss = self.train_epoch(max_timestamps=max_timestamps)
                if self.scheduler is not None:
                    self.scheduler.step()
                result.epoch_losses.append(loss)
                self._gauge_loss.set(loss)
                valid_mrr: Optional[float] = None
                if (epoch + 1) % eval_every == 0:
                    with span("train.evaluate", epoch=epoch, split="valid"):
                        valid_mrr = self.evaluate(
                            "valid", max_timestamps=max_timestamps
                        ).mrr
                    result.valid_mrrs.append(valid_mrr)
                    self._gauge_mrr.set(valid_mrr)
                    if valid_mrr > result.best_valid_mrr:
                        result.best_valid_mrr = valid_mrr
                        result.best_epoch = epoch
                        best_state = self.model.state_dict()
                        stale = 0
                    else:
                        stale += 1
                log_event(
                    logger,
                    "epoch",
                    epoch=epoch,
                    loss=loss,
                    valid_mrr=valid_mrr,
                    grad_norm=self._gauge_grad_norm.value,
                    update_ratio=self._gauge_update_ratio.value,
                )
                if self.health is not None:
                    self.health.observe_epoch(epoch, loss, valid_mrr=valid_mrr)
                if callback is not None:
                    callback(epoch, loss, valid_mrr)
                if patience is not None and stale > patience:
                    break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        result.wall_time = time.perf_counter() - start
        return result
