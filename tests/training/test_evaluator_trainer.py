"""Evaluator walk, time filters, trainer loop, early stopping."""

import numpy as np
import pytest

from repro.baselines import DistMult, build_model
from repro.core import HisRES, HisRESConfig
from repro.training import TimelineEvaluator, Trainer, build_time_filter, seed_everything
from repro.core.window import WindowBuilder


class TestBuildTimeFilter:
    def test_raw_and_inverse_entries(self):
        quads = np.array([[1, 0, 2, 7]])
        tf = build_time_filter(quads, num_relations=3)
        assert tf[(1, 0)] == {2}
        assert tf[(2, 3)] == {1}

    def test_multiple_objects_same_pair(self):
        quads = np.array([[1, 0, 2, 7], [1, 0, 4, 7]])
        tf = build_time_filter(quads, num_relations=3)
        assert tf[(1, 0)] == {2, 4}


class TestEvaluator:
    def test_queries_with_inverse_doubles(self, tiny_dataset):
        ev = TimelineEvaluator(tiny_dataset)
        quads = tiny_dataset.test.quads[:5]
        doubled = ev.queries_with_inverse(quads)
        assert len(doubled) == 10
        assert doubled[5, 1] == quads[0, 1] + tiny_dataset.num_relations

    def test_evaluate_walk_counts_queries(self, tiny_dataset):
        model = DistMult(tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8)
        ev = TimelineEvaluator(tiny_dataset)
        wb = WindowBuilder(tiny_dataset.num_entities, tiny_dataset.num_relations,
                           history_length=2, use_global=False)
        res = ev.evaluate_walk(model, wb, tiny_dataset.test,
                               warmup_splits=(tiny_dataset.train, tiny_dataset.valid))
        assert res.as_dict()["num_queries"] == 2 * len(tiny_dataset.test)

    def test_max_timestamps_caps_work(self, tiny_dataset):
        model = DistMult(tiny_dataset.num_entities, tiny_dataset.num_relations, dim=8)
        ev = TimelineEvaluator(tiny_dataset)
        wb = WindowBuilder(tiny_dataset.num_entities, tiny_dataset.num_relations,
                           history_length=2, use_global=False)
        res = ev.evaluate_walk(model, wb, tiny_dataset.test, max_timestamps=1)
        first_t = sorted(tiny_dataset.test.facts_by_time())[0]
        expected = 2 * len(tiny_dataset.test.at_time(first_t))
        assert res.as_dict()["num_queries"] == expected


class TestTrainer:
    def _trainer(self, tiny_dataset, **kw):
        cfg = HisRESConfig(embedding_dim=8, history_length=2, decoder_channels=4)
        model = HisRES(tiny_dataset.num_entities, tiny_dataset.num_relations, cfg)
        defaults = dict(history_length=2, use_global=True, learning_rate=0.01, seed=0)
        defaults.update(kw)
        return Trainer(model, tiny_dataset, **defaults)

    def test_train_epoch_returns_loss(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        loss = tr.train_epoch()
        assert np.isfinite(loss) and loss > 0

    def test_loss_decreases_over_epochs(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        losses = [tr.train_epoch() for _ in range(4)]
        assert losses[-1] < losses[0]

    def test_fit_tracks_best_model(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        result = tr.fit(epochs=3)
        assert len(result.epoch_losses) == 3
        assert result.best_epoch >= 0
        assert 0 <= result.best_valid_mrr <= 1

    def test_early_stopping_stops(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        result = tr.fit(epochs=50, patience=0)
        # patience 0: stops at the first non-improving eval
        assert len(result.epoch_losses) < 50

    def test_evaluate_splits(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        tr.train_epoch()
        for split in ["valid", "test"]:
            res = tr.evaluate(split)
            assert 0 <= res.mrr <= 1

    def test_evaluate_unknown_split_raises(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        with pytest.raises(ValueError):
            tr.evaluate("nope")

    def test_max_timestamps_shortens_epoch(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        full = len(sorted(tiny_dataset.train.facts_by_time()))
        tr.train_epoch(max_timestamps=3)  # should not raise; fewer steps

    def test_training_improves_over_untrained(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        before = tr.evaluate("test").mrr
        tr.fit(epochs=5)
        after = tr.evaluate("test").mrr
        assert after > before

    def test_callback_invoked(self, tiny_dataset):
        tr = self._trainer(tiny_dataset)
        seen = []
        tr.fit(epochs=2, callback=lambda e, l, m: seen.append((e, l, m)))
        assert len(seen) == 2


class TestSeeding:
    def test_same_seed_same_model_init(self, tiny_dataset):
        seed_everything(7)
        m1 = DistMult(5, 2, dim=4)
        seed_everything(7)
        m2 = DistMult(5, 2, dim=4)
        np.testing.assert_allclose(m1.entity.weight.data, m2.entity.weight.data)

    def test_training_reproducible(self, tiny_dataset):
        def run():
            cfg = HisRESConfig(embedding_dim=8, history_length=2, decoder_channels=4)
            seed_everything(5)
            model = HisRES(tiny_dataset.num_entities, tiny_dataset.num_relations, cfg)
            tr = Trainer(model, tiny_dataset, history_length=2, seed=5)
            tr.train_epoch()
            return tr.evaluate("valid").mrr

        assert run() == pytest.approx(run())


class TestSchedulerIntegration:
    def test_scheduler_steps_per_epoch(self, tiny_dataset):
        from functools import partial

        from repro.baselines import build_model
        from repro.nn.schedulers import StepLR

        model = build_model("distmult", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        tr = Trainer(model, tiny_dataset, history_length=2, use_global=False,
                     learning_rate=0.1,
                     scheduler_factory=partial(StepLR, step_size=1, gamma=0.5),
                     seed=0)
        tr.fit(epochs=2)
        assert tr.optimizer.lr == pytest.approx(0.025)

    def test_no_scheduler_keeps_lr(self, tiny_dataset):
        from repro.baselines import build_model

        model = build_model("distmult", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        tr = Trainer(model, tiny_dataset, history_length=2, use_global=False,
                     learning_rate=0.05, seed=0)
        tr.fit(epochs=2)
        assert tr.optimizer.lr == pytest.approx(0.05)
