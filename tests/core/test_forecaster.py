"""Forecaster: the online prediction API."""

import numpy as np
import pytest

from repro.core import Forecaster, HisRES, HisRESConfig, WindowConfig


def _forecaster(tiny_dataset, **kw):
    cfg = HisRESConfig(embedding_dim=8, history_length=2, decoder_channels=4)
    model = HisRES(tiny_dataset.num_entities, tiny_dataset.num_relations, cfg)
    return Forecaster(
        model, tiny_dataset.num_entities, tiny_dataset.num_relations,
        window_config=WindowConfig(history_length=2, use_global=True), **kw,
    )


class TestObservation:
    def test_tracks_current_time(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        assert fc.current_time is None
        fc.observe(np.array([[0, 0, 1, 5]]))
        assert fc.current_time == 5

    def test_timestamp_override(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.observe(np.array([[0, 0, 1, 99]]), timestamp=3)
        assert fc.current_time == 3

    def test_rejects_out_of_order(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.observe(np.array([[0, 0, 1, 5]]))
        with pytest.raises(ValueError):
            fc.observe(np.array([[0, 0, 1, 3]]))

    def test_empty_snapshot_noop(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.observe(np.zeros((0, 4)))
        assert fc.current_time is None

    def test_warm_up_replays_split(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.warm_up(tiny_dataset.train)
        assert fc.current_time == int(tiny_dataset.train.timestamps[-1])

    def test_reset(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.observe(np.array([[0, 0, 1, 5]]))
        fc.reset()
        assert fc.current_time is None
        fc.observe(np.array([[0, 0, 1, 1]]))  # earlier time ok after reset


class TestPrediction:
    def test_predict_returns_ranked_candidates(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.warm_up(tiny_dataset.train, max_timestamps=5)
        preds = fc.predict(subject=0, relation=0, top_k=5)
        assert len(preds) == 5
        assert [p.rank for p in preds] == [1, 2, 3, 4, 5]
        scores = [p.score for p in preds]
        assert scores == sorted(scores, reverse=True)

    def test_inverse_query_uses_doubled_relation(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.warm_up(tiny_dataset.train, max_timestamps=5)
        raw = fc.predict(subject=0, relation=0, top_k=3)
        inv = fc.predict(subject=0, relation=0, top_k=3, inverse=True)
        assert [p.score for p in raw] != [p.score for p in inv]

    def test_predict_batch_shape(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.warm_up(tiny_dataset.train, max_timestamps=3)
        scores = fc.predict_batch(np.array([[0, 0], [1, 1]]))
        assert scores.shape == (2, tiny_dataset.num_entities)

    def test_predict_batch_validates_shape(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        with pytest.raises(ValueError):
            fc.predict_batch(np.array([0, 0]).reshape(2, 1))

    def test_prediction_time_defaults_to_next_step(self, tiny_dataset):
        fc = _forecaster(tiny_dataset)
        fc.observe(np.array([[0, 0, 1, 7]]))
        # should not raise; windows computed for t=8
        fc.predict(subject=0, relation=0, top_k=1)


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_dataset, tmp_path):
        fc = _forecaster(tiny_dataset)
        fc.warm_up(tiny_dataset.train, max_timestamps=5)
        before = fc.predict(subject=0, relation=0, top_k=3)
        path = str(tmp_path / "model.npz")
        fc.save(path, metadata={"note": "test"})

        fc2 = _forecaster(tiny_dataset)
        meta = fc2.load(path)
        assert meta["note"] == "test"
        assert meta["num_entities"] == tiny_dataset.num_entities
        fc2.warm_up(tiny_dataset.train, max_timestamps=5)
        after = fc2.predict(subject=0, relation=0, top_k=3)
        assert [p.entity for p in before] == [p.entity for p in after]
        assert before[0].score == pytest.approx(after[0].score)
