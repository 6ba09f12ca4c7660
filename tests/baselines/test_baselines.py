"""Every baseline: construction, scoring shapes, loss, gradients, registry."""

import numpy as np
import pytest

from repro.baselines import (
    CEN,
    CENET,
    MODEL_REGISTRY,
    ComplEx,
    ConvE,
    ConvTransEModel,
    CyGNet,
    DistMult,
    LogCL,
    REGCN,
    RENet,
    RotatE,
    TiRGN,
    build_model,
)
from repro.core.window import WindowBuilder
from repro.graphs.history import vocabulary_mask

E, R = 12, 4


def _window(track_vocabulary=True, use_global=True):
    b = WindowBuilder(E, R, history_length=2, use_global=use_global,
                      track_vocabulary=track_vocabulary)
    b.absorb(np.array([[0, 0, 1, 0], [2, 1, 3, 0]]))
    b.absorb(np.array([[1, 2, 4, 1], [0, 0, 2, 1]]))
    queries = np.array([[0, 0, 1, 2], [3, 1, 2, 2], [1, 4, 0, 2]])
    return b.window_for(queries, prediction_time=2), queries


ALL_KEYS = sorted(MODEL_REGISTRY)


class TestRegistry:
    def test_all_models_buildable(self):
        for key in ALL_KEYS:
            model = build_model(key, E, R, dim=8)
            assert model.num_parameters() > 0

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            build_model("nope", E, R)

    def test_registry_names_unique(self):
        names = [spec.name for spec in MODEL_REGISTRY.values()]
        assert len(names) == len(set(names))

    def test_static_flags(self):
        assert MODEL_REGISTRY["distmult"].is_static
        assert not MODEL_REGISTRY["regcn"].is_static

    def test_requirements_consistent(self):
        assert MODEL_REGISTRY["cygnet"].requirements.vocabulary
        assert MODEL_REGISTRY["logcl"].requirements.global_graph
        assert MODEL_REGISTRY["regcn"].requirements.recent_snapshots


class TestScoringContract:
    """Every model must produce (n, |E|) finite scores and a finite loss."""

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_scores_and_loss(self, key):
        model = build_model(key, E, R, dim=8)
        window, queries = _window()
        scores = model.predict_entities(window, queries)
        assert scores.shape == (3, E)
        assert np.all(np.isfinite(scores))
        loss = model.loss(window, queries)
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_loss_produces_gradients(self, key):
        model = build_model(key, E, R, dim=8)
        window, queries = _window()
        model.loss(window, queries).backward()
        grads = [p for p in model.parameters() if p.grad is not None]
        assert len(grads) > 0
        assert all(np.all(np.isfinite(p.grad)) for p in grads)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_eval_deterministic(self, key):
        model = build_model(key, E, R, dim=8)
        window, queries = _window()
        a = model.predict_entities(window, queries)
        b = model.predict_entities(window, queries)
        np.testing.assert_allclose(a, b)


class TestStaticModels:
    def test_distmult_score_is_trilinear(self, rng):
        m = DistMult(E, R, dim=4)
        window, queries = _window()
        scores = m.predict_entities(window, queries)
        s = m.entity.weight.data[queries[0, 0]]
        r = m.relation.weight.data[queries[0, 1]]
        expected = (s * r) @ m.entity.weight.data.T
        np.testing.assert_allclose(scores[0], expected)

    def test_complex_conjugate_symmetry(self):
        """ComplEx scores are real-valued bilinear forms."""
        m = ComplEx(E, R, dim=4)
        window, queries = _window()
        scores = m.predict_entities(window, queries)
        assert np.all(np.isfinite(scores))

    def test_rotate_self_rotation_zero_distance(self):
        """With zero phase, the top candidate for s is s itself."""
        m = RotatE(E, R, dim=4)
        m.phase.data[...] = 0.0
        window, _ = _window()
        queries = np.array([[3, 0, 0, 2]])
        scores = m.predict_entities(window, queries)
        assert scores[0].argmax() == 3

    def test_conve_requires_divisible_dim(self):
        with pytest.raises(ValueError):
            ConvE(E, R, dim=10, reshape_height=4)

    def test_static_models_ignore_history(self):
        """Same scores regardless of window contents."""
        m = ConvTransEModel(E, R, dim=8)
        m.eval()
        w1, queries = _window()
        b = WindowBuilder(E, R, history_length=2, use_global=False)
        w2 = b.window_for(queries, prediction_time=0)  # empty history
        np.testing.assert_allclose(
            m.predict_entities(w1, queries), m.predict_entities(w2, queries)
        )


class TestVocabularyModels:
    def test_cygnet_copy_boosts_historical(self):
        m = CyGNet(E, R, dim=8, copy_weight=1.0)
        m.eval()
        window, queries = _window()
        scores = m.predict_entities(window, queries)
        mask = vocabulary_mask(window.vocabulary, queries[:, 0], queries[:, 1], E)
        # with pure copy mode, any seen candidate outranks all unseen ones
        for i in range(len(queries)):
            seen = np.flatnonzero(mask[i])
            unseen = np.flatnonzero(mask[i] == 0)
            if len(seen) and len(unseen):
                assert scores[i, seen].min() > scores[i, unseen].max()

    def test_cygnet_requires_masks(self):
        m = CyGNet(E, R, dim=8)
        b = WindowBuilder(E, R, history_length=2, track_vocabulary=False)
        window = b.window_for(np.array([[0, 0, 1, 0]]), prediction_time=0)
        with pytest.raises(RuntimeError):
            m.predict_entities(window, np.array([[0, 0, 1, 0]]))

    def test_cygnet_invalid_copy_weight(self):
        with pytest.raises(ValueError):
            CyGNet(E, R, dim=8, copy_weight=1.5)

    def test_cenet_gate_blends_distributions(self):
        m = CENET(E, R, dim=8)
        window, queries = _window()
        scores = m.predict_entities(window, queries)
        # scores are log-probabilities: logsumexp == 0
        from scipy.special import logsumexp
        np.testing.assert_allclose(logsumexp(scores, axis=1), 0.0, atol=1e-6)

    def test_tirgn_mixture_is_log_probability(self):
        m = TiRGN(E, R, dim=8)
        m.eval()
        window, queries = _window()
        scores = m.predict_entities(window, queries)
        from scipy.special import logsumexp
        np.testing.assert_allclose(logsumexp(scores, axis=1), 0.0, atol=1e-6)

    def test_tirgn_invalid_global_weight(self):
        with pytest.raises(ValueError):
            TiRGN(E, R, dim=8, global_weight=2.0)


class TestTemporalModels:
    def test_renet_uses_history(self):
        """Scores change when history changes (unlike statics)."""
        m = RENet(E, R, dim=8)
        m.eval()
        w1, queries = _window()
        b = WindowBuilder(E, R, history_length=2, use_global=False, track_vocabulary=True)
        b.absorb(np.array([[5, 3, 6, 0]]))
        w2 = b.window_for(queries, prediction_time=1)
        assert not np.allclose(
            m.predict_entities(w1, queries), m.predict_entities(w2, queries)
        )

    def test_regcn_joint_loss_differs_from_entity_only(self):
        m = REGCN(E, R, dim=8, alpha=0.7)
        window, queries = _window()
        joint = m.loss(window, queries).item()
        m2 = REGCN(E, R, dim=8, alpha=1.0)
        m2.load_state_dict(m.state_dict())
        entity_only = m2.loss(window, queries).item()
        assert joint != pytest.approx(entity_only)

    def test_cen_length_ensemble(self):
        m = CEN(E, R, dim=8, lengths=(1, 2))
        window, queries = _window()
        scores = m.predict_entities(window, queries)
        assert scores.shape == (3, E)

    def test_cen_deduplicates_lengths(self):
        m = CEN(E, R, dim=8, lengths=(2, 2, 1))
        assert m.lengths == (1, 2)

    def test_logcl_contrastive_term_active_in_loss(self):
        m = LogCL(E, R, dim=8, contrastive_weight=0.5)
        window, queries = _window()
        with_cl = m.loss(window, queries).item()
        m.contrastive_weight = 0.0
        without_cl = m.loss(window, queries).item()
        assert with_cl != pytest.approx(without_cl)

    def test_logcl_empty_global_graph_ok(self):
        m = LogCL(E, R, dim=8)
        b = WindowBuilder(E, R, history_length=2, use_global=True)
        b.absorb(np.array([[0, 0, 1, 0]]))
        queries = np.array([[9, 3, 9, 1]])  # pair with no history
        window = b.window_for(queries, prediction_time=1)
        scores = m.predict_entities(window, queries)
        assert np.all(np.isfinite(scores))
