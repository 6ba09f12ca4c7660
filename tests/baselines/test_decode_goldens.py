"""Float64 goldens for the vocabulary and subgraph-walk baselines.

``decode_goldens.npz`` holds entity scores, eval-mode loss values, and
eval-mode parameter gradients of CyGNet, CENET, TiRGN, and xERTE on a
tiny seeded stream, recorded before these models were split into
``encode``/``decode``.  Every scoring route — the execution plan (live
and cached), ``predict_entities``, and the blocked timeline decode —
must reproduce the scores and losses **bitwise**; gradients agree to
1e-10 relative (TiRGN's loss now encodes once instead of twice, which
reorders its gradient accumulation).

Regenerate with ``PYTHONPATH=src python tests/baselines/test_decode_goldens.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines import MODEL_REGISTRY, build_model
from repro.core.window import WindowBuilder
from repro.training import seed_everything

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "decode_goldens.npz")
KEYS = ("cygnet", "cenet", "tirgn", "xerte")
E, R, DIM, SEED = 24, 5, 8, 7


def _stream():
    """Seeded history (6 snapshots) plus raw+inverse queries at t=6.

    Half the query rows repeat historical facts so every vocabulary
    model sees both seen and unseen (s, r) pairs.
    """
    rng = np.random.default_rng(11)
    history = [
        np.stack(
            [rng.integers(0, E, 10), rng.integers(0, R, 10), rng.integers(0, E, 10),
             np.full(10, t)],
            axis=1,
        ).astype(np.int64)
        for t in range(6)
    ]
    fresh = np.stack(
        [rng.integers(0, E, 6), rng.integers(0, R, 6), rng.integers(0, E, 6)], axis=1
    )
    seen = np.concatenate(history)[rng.choice(60, 6, replace=False), :3]
    raw = np.concatenate([fresh, seen])
    inverse = raw[:, [2, 1, 0]].copy()
    inverse[:, 1] += R
    queries = np.concatenate([raw, inverse])
    queries = np.concatenate([queries, np.full((len(queries), 1), 6)], axis=1)
    return history, queries.astype(np.int64)


def _setup(key):
    """Seeded eval-mode model + the window for the golden queries."""
    history, queries = _stream()
    requirements = MODEL_REGISTRY[key].requirements
    builder = WindowBuilder(
        E, R, history_length=2, use_global=False,
        track_vocabulary=requirements.vocabulary,
    )
    for quads in history:
        builder.absorb(quads)
    seed_everything(SEED)
    model = build_model(key, E, R, dim=DIM)
    model.eval()
    return model, builder.window_for(queries, prediction_time=6), queries


def _loss_and_grads(model, window, queries):
    model.zero_grad()
    loss = model.loss(window, queries)
    loss.backward()
    grads = {
        name: np.zeros_like(param.data) if param.grad is None else np.array(param.grad)
        for name, param in model.named_parameters()
    }
    return np.asarray(loss.data), grads


def compute(key):
    """Scores, loss and gradients of ``key`` through its public API."""
    model, window, queries = _setup(key)
    scores = np.asarray(model.predict_entities(window, queries))
    loss, grads = _loss_and_grads(model, window, queries)
    out = {f"{key}/scores": scores, f"{key}/loss": loss}
    out.update({f"{key}/grad/{name}": grad for name, grad in grads.items()})
    return out


@pytest.fixture(scope="module")
def goldens():
    with np.load(GOLDEN_PATH) as archive:
        return {name: np.array(archive[name]) for name in archive.files}


@pytest.mark.parametrize("key", KEYS)
class TestDecodeGoldens:
    def test_predict_entities_bitwise(self, key, goldens):
        model, window, queries = _setup(key)
        scores = np.asarray(model.predict_entities(window, queries))
        assert np.array_equal(scores, goldens[f"{key}/scores"])

    def test_plan_live_and_cached_bitwise(self, key, goldens):
        from repro.core.execution import EncoderStateCache, ExecutionPlan

        model, window, queries = _setup(key)
        plan = ExecutionPlan(model, cache=EncoderStateCache(capacity=2, owner="goldens"))
        live = plan.entity_scores(window, queries)
        cached = plan.entity_scores(window, queries)
        assert plan.cache.misses == 1 and plan.cache.hits == 1
        assert np.array_equal(live, goldens[f"{key}/scores"])
        assert np.array_equal(cached, goldens[f"{key}/scores"])

    def test_blocked_timeline_decode_bitwise(self, key, goldens):
        from repro.core.execution import ExecutionPlan, TimelineBatcher, TimelineStep

        model, window, queries = _setup(key)
        half = len(queries) // 2
        steps = [TimelineStep(6, window, queries[:half]), TimelineStep(6, window, queries[half:])]
        batcher = TimelineBatcher(ExecutionPlan(model), num_entities=E)
        rows = [entity_rows for _, entity_rows, _ in batcher.run(steps)]
        assert batcher.last_stats["groups"] == 1
        assert np.array_equal(np.concatenate(rows), goldens[f"{key}/scores"])

    def test_eval_loss_bitwise_and_grads_close(self, key, goldens):
        model, window, queries = _setup(key)
        loss, grads = _loss_and_grads(model, window, queries)
        assert np.array_equal(loss, goldens[f"{key}/loss"])
        for name, grad in grads.items():
            golden = goldens[f"{key}/grad/{name}"]
            scale = float(np.abs(golden).max()) if golden.size else 0.0
            np.testing.assert_allclose(grad, golden, rtol=0.0, atol=1e-10 * scale, err_msg=name)


if __name__ == "__main__":
    arrays = {}
    for model_key in KEYS:
        arrays.update(compute(model_key))
    np.savez_compressed(GOLDEN_PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN_PATH}")
