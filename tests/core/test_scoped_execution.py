"""Query-scoped execution: scatter decode, parity fence, scoped loss.

The acceptance fence of the sampled execution plane: with exhaustive
fan-out the sampler returns the identity scope, the scoped plan
delegates verbatim to the full-graph plan, and decode scores are
bitwise-identical (float64) for every split model.  Capped runs must be
reproducible under a fixed sampler seed and still carry gradients back
to the parameters.
"""

import numpy as np
import pytest

from repro.baselines import MODEL_REGISTRY, build_model
from repro.core import EncoderStateCache, ExecutionPlan, ScopedExecutionPlan, scatter_rows
from repro.core.execution import TimelineBatcher, TimelineStep
from repro.core.window import WindowBuilder
from repro.data import generate_dataset
from repro.graphs import NeighborSampler
from repro.nn.tensor import Tensor
from repro.obs.metrics import get_registry, parse_prometheus_text

SPLIT_MODELS = ["regcn", "cen", "renet", "logcl", "retia", "rpc", "hgls", "hisres"]


def _setup(key, dim=16):
    dataset = generate_dataset("unit_tiny")
    spec = MODEL_REGISTRY.get(key)
    model = build_model(key, dataset.num_entities, dataset.num_relations, dim=dim)
    use_global = key in ("hisres", "logcl") or (
        spec is not None and spec.requirements.global_graph
    )
    builder = WindowBuilder(
        dataset.num_entities,
        dataset.num_relations,
        history_length=3,
        use_global=use_global,
        track_vocabulary=spec is not None and spec.requirements.vocabulary,
    )
    items = sorted(dataset.train.facts_by_time().items())
    for t, quads in items[:-1]:
        builder.absorb(quads)
    t, quads = items[-1]
    queries = np.column_stack([quads[:, 0], quads[:, 1], quads[:, 2]])
    window = builder.window_for(queries, prediction_time=t)
    if hasattr(model, "eval"):
        model.eval()
    return model, window, queries


def _scores(plan, window, queries):
    """Entity scores through a one-step timeline walk: the encode and
    blocked decode that evaluation and serving run, for full and scoped
    plans alike."""
    step = TimelineStep(int(window.prediction_time), window, queries)
    batcher = TimelineBatcher(plan, num_entities=plan.model.num_entities, owner="test")
    ((_, rows, _),) = batcher.run([step])
    return rows


class TestScatterRows:
    def test_scatter_overwrites_selected_rows(self):
        reference = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
        rows = Tensor(np.full((2, 3), -1.0))
        out = scatter_rows(reference, np.array([1, 3]), rows)
        np.testing.assert_array_equal(out.data[[0, 2]], reference.data[[0, 2]])
        np.testing.assert_array_equal(out.data[[1, 3]], rows.data)

    def test_scatter_backward_reaches_rows(self):
        reference = Tensor(np.zeros((4, 3)), requires_grad=True)
        rows = Tensor(np.ones((2, 3)), requires_grad=True)
        out = scatter_rows(reference, np.array([0, 2]), rows)
        out.sum().backward()
        np.testing.assert_array_equal(rows.grad, np.ones((2, 3)))
        # scattered-over reference rows receive no gradient
        np.testing.assert_array_equal(reference.grad[[0, 2]], np.zeros((2, 3)))
        np.testing.assert_array_equal(reference.grad[[1, 3]], np.ones((2, 3)))


class TestIdentityParity:
    """Parity fence, scoped vs full: **bitwise** on identity scopes.

    When the sampled closure covers every edge endpoint (exhaustive
    fanouts), the scoped plan delegates to the full plan, so scores
    are ``array_equal`` (float64) to the full-graph decode.  Capped
    scopes are an approximation and sit outside this fence; they are
    only checked to be reproducible for a fixed seed.
    """

    @pytest.mark.parametrize("key", SPLIT_MODELS)
    def test_exhaustive_fanout_is_bitwise_identical(self, key):
        model, window, queries = _setup(key)
        plan = ExecutionPlan(model, cache=EncoderStateCache(owner=f"t-{key}"))
        scoped = ScopedExecutionPlan(plan, NeighborSampler("full", owner=f"t-{key}"))
        assert scoped.supports_scoping
        full = _scores(plan, window, queries)
        sampled = _scores(scoped, window, queries)
        np.testing.assert_array_equal(sampled, full)
        assert scoped.stats()["identity_encodes"] >= 1
        assert scoped.stats()["scoped_encodes"] == 0

    def test_static_models_pass_through(self):
        model, window, queries = _setup("distmult")
        plan = ExecutionPlan(model, cache=EncoderStateCache(owner="t-static"))
        scoped = ScopedExecutionPlan(plan, NeighborSampler("2,1", owner="t-static"))
        assert not scoped.supports_scoping
        np.testing.assert_array_equal(
            _scores(scoped, window, queries), _scores(plan, window, queries)
        )


class TestCappedScoping:
    @pytest.mark.parametrize("key", ["regcn", "hisres"])
    def test_capped_scores_reproducible(self, key):
        model, window, queries = _setup(key)
        scores = []
        for _ in range(2):
            plan = ExecutionPlan(model, cache=EncoderStateCache(owner=f"c-{key}"))
            scoped = ScopedExecutionPlan(
                plan, NeighborSampler("2,1", seed=7, owner=f"c-{key}")
            )
            scores.append(_scores(scoped, window, queries))
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_scoped_loss_carries_gradients(self):
        model, window, queries = _setup("regcn")
        model.train()
        plan = ExecutionPlan(model, cache=EncoderStateCache(owner="g-regcn"))
        scoped = ScopedExecutionPlan(
            plan, NeighborSampler("2,1", seed=7, owner="g-regcn")
        )
        model.zero_grad()
        loss = scoped.loss(window, queries)
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and any(np.abs(g).sum() > 0 for g in grads)

    def test_scoped_state_never_cached_as_full(self):
        model, window, queries = _setup("regcn")
        cache = EncoderStateCache(owner="nc-regcn")
        plan = ExecutionPlan(model, cache=cache)
        scoped = ScopedExecutionPlan(
            plan, NeighborSampler("2,1", seed=7, owner="nc-regcn")
        )
        _scores(scoped, window, queries)
        # the full window's state must not have been populated by the
        # scoped decode — only a real full encode may claim that key
        assert cache.cached_state(model, window) is None


class TestEncodeCounters:
    def test_stats_equal_exported_series(self):
        """Scoped-plan encode counts live only on the registry:
        ``stats()`` reads this plan's children of the family."""
        model, window, queries = _setup("regcn")
        plan = ExecutionPlan(model, cache=EncoderStateCache(owner="cnt-regcn"))
        identity = ScopedExecutionPlan(plan, NeighborSampler("full", owner="cnt-full"))
        capped = ScopedExecutionPlan(plan, NeighborSampler("1", seed=7, owner="cnt-capped"))
        _scores(identity, window, queries)
        for _ in range(2):
            _scores(capped, window, queries[:2])
        assert identity.stats()["identity_encodes"] == 1
        assert capped.stats()["scoped_encodes"] == 2
        samples = parse_prometheus_text(get_registry().render_prometheus())
        for scoped in (identity, capped):
            exported = {
                s.labels["scope"]: int(s.value)
                for s in samples
                if s.name == "repro_scoped_encodes_total"
                and s.labels.get("instance") == scoped.instance
            }
            stats = scoped.stats()
            assert exported == {
                "identity": stats["identity_encodes"], "scoped": stats["scoped_encodes"]
            }
