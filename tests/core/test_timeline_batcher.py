"""Batched timeline evaluation plane.

The acceptance-critical properties:

- **grouping invariants** (hypothesis): on random synthetic walks every
  group produced by :func:`group_steps` is fingerprint-equal and
  maximal — a group never merges across a window-content change, and
  adjacent groups always differ;
- **bitwise parity**: the grouped blocked decode equals the
  per-timestamp encode-once path bitwise (float64) for every registered
  model, entities and relations;
- **blocked-replay fence** (ulp-bounded): at ``icews14s_small`` shape
  the blocked decode matches the per-batch encode-once path to 1e-12
  and ranks identically outside a tie margin;
- **sampled evaluation fence**: an evaluation walk through a
  :class:`ScopedExecutionPlan` with exhaustive fanouts is bitwise-equal
  to the full-plan walk, and capped fanouts complete;
- the evaluator/forecaster walks land the same metrics as a
  hand-written per-timestamp reference loop.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import MODEL_REGISTRY, build_model
from repro.core import HisRES, HisRESConfig
from repro.core.execution import (
    EncoderStateCache,
    ExecutionPlan,
    ScopedExecutionPlan,
    TimelineBatcher,
    TimelineStep,
    group_steps,
)
from repro.core.forecaster import Forecaster
from repro.core.window import WindowBuilder
from repro.data import generate_dataset
from repro.graphs.sampler import NeighborSampler
from repro.training import TimelineEvaluator, seed_everything
from repro.training.evaluator import build_time_filter
from repro.training.metrics import filtered_ranks, summarize_ranks

E, R = 24, 5


def _quads(rng, t, n=6):
    return np.stack(
        [
            rng.integers(0, E, n),
            rng.integers(0, R, n),
            rng.integers(0, E, n),
            np.full(n, t),
        ],
        axis=1,
    ).astype(np.int64)


def _hisres(dim=8, use_global=True):
    config = HisRESConfig(
        embedding_dim=dim, history_length=2, decoder_channels=4, dropout=0.0
    )
    return HisRES(E, R, config)


def _sealed_walk(builder, rng, periods=3, per_seal=3):
    """A sealed-cadence walk: history seals every ``per_seal`` steps, so
    consecutive steps between seals share window content *and*
    prediction time — the serving-store shape that forms groups."""
    steps = []
    t = 0
    builder.absorb(_quads(rng, t))
    for _ in range(periods):
        t += 1
        for _ in range(per_seal):
            queries = _quads(rng, t, n=4)
            window = builder.window_for(queries, prediction_time=t)
            steps.append(TimelineStep(t, window, queries))
        builder.absorb(_quads(rng, t))
    return steps


class TestGroupingProperties:
    @given(
        absorbs=st.lists(st.booleans(), min_size=2, max_size=10),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_groups_fingerprint_equal_and_maximal(self, absorbs, seed):
        rng = np.random.default_rng(seed)
        builder = WindowBuilder(E, R, history_length=2, use_global=False)
        t = 0
        builder.absorb(_quads(rng, t))
        steps = []
        for absorb in absorbs:
            if absorb:
                t += 1
                builder.absorb(_quads(rng, t))
            queries = _quads(rng, t + 1, n=2)
            window = builder.window_for(queries, prediction_time=t + 1)
            steps.append(TimelineStep(t + 1, window, queries))

        groups = list(group_steps(steps))
        # every group is fingerprint-equal: never merges across a change
        for group in groups:
            first = group[0].window.fingerprint()
            assert all(s.window.fingerprint() == first for s in group)
        # maximal: adjacent groups always differ
        for left, right in zip(groups, groups[1:]):
            assert left[-1].window.fingerprint() != right[0].window.fingerprint()
        # order-preserving, lossless partition
        flat = [s for g in groups for s in g]
        assert flat == steps
        # oracle: exactly itertools.groupby on the fingerprint stream
        expected = [
            len(list(g))
            for _, g in itertools.groupby(steps, key=lambda s: s.window.fingerprint())
        ]
        assert [len(g) for g in groups] == expected


class TestBlockedDecodeParity:
    @pytest.mark.parametrize("key", sorted(MODEL_REGISTRY))
    def test_blocked_walk_bitwise_equals_per_timestamp(self, key):
        spec = MODEL_REGISTRY[key]
        # two identically-initialised instances so stateful encoders
        # (HGLS's entity memory) see each window exactly once per route
        seed_everything(11)
        reference_model = build_model(key, E, R, dim=8)
        seed_everything(11)
        batched_model = build_model(key, E, R, dim=8)
        reference_model.eval()
        batched_model.eval()

        def make_builder():
            return WindowBuilder(
                E,
                R,
                history_length=2,
                use_global=spec.requirements.global_graph,
                track_vocabulary=spec.requirements.vocabulary,
            )

        steps_ref = _sealed_walk(make_builder(), np.random.default_rng(3))
        steps_bat = _sealed_walk(make_builder(), np.random.default_rng(3))

        reference_plan = ExecutionPlan(
            reference_model, cache=EncoderStateCache(capacity=8, owner="ref")
        )
        expected = [
            reference_plan.entity_scores(s.window, s.queries) for s in steps_ref
        ]

        batched_plan = ExecutionPlan(
            batched_model, cache=EncoderStateCache(capacity=8, owner="bat")
        )
        batcher = TimelineBatcher(batched_plan, num_entities=E, owner="parity_test")
        got = [rows for _, rows, _ in batcher.run(iter(steps_bat), entities=True)]

        assert len(got) == len(expected)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(np.asarray(want), np.asarray(have))

    def test_grouping_actually_batches(self):
        """A sealed-cadence walk with no global graph forms real groups
        (one encode + one decode per seal period, not per timestamp)."""
        model = build_model("regcn", E, R, dim=8)
        model.eval()
        builder = WindowBuilder(E, R, history_length=2, use_global=False)
        steps = _sealed_walk(builder, np.random.default_rng(5), periods=3, per_seal=4)
        cache = EncoderStateCache(capacity=8, owner="group_test")
        plan = ExecutionPlan(model, cache=cache)
        batcher = TimelineBatcher(plan, num_entities=E, owner="group_test")
        list(batcher.run(iter(steps), entities=True))
        stats = batcher.last_stats
        assert stats["steps"] == 12
        assert stats["groups"] == 3
        assert stats["mean_group_size"] == 4.0
        assert cache.misses == 3  # one live encode per group

    def test_relation_rows_match_per_timestamp(self):
        seed_everything(23)
        reference_model = _hisres()
        seed_everything(23)
        batched_model = _hisres()
        reference_model.eval()
        batched_model.eval()

        def walk():
            builder = WindowBuilder(E, R, history_length=2, use_global=False)
            return _sealed_walk(builder, np.random.default_rng(9))

        steps_ref, steps_bat = walk(), walk()
        reference_plan = ExecutionPlan(
            reference_model, cache=EncoderStateCache(capacity=8, owner="relref")
        )
        expected = [
            reference_plan.entity_and_relation_scores(s.window, s.queries)
            for s in steps_ref
        ]
        batched_plan = ExecutionPlan(
            batched_model, cache=EncoderStateCache(capacity=8, owner="relbat")
        )
        batcher = TimelineBatcher(batched_plan, num_entities=E, owner="rel_test")
        got = list(batcher.run(iter(steps_bat), entities=True, relations=True))
        for (want_e, want_r), (_, have_e, have_r) in zip(expected, got):
            np.testing.assert_array_equal(np.asarray(want_e), np.asarray(have_e))
            np.testing.assert_array_equal(np.asarray(want_r), np.asarray(have_r))


class TestBlockedReplayFence:
    def test_blocked_replay_matches_per_batch(self):
        """Blocked grouped decode vs per-batch encode-once decode on a
        replay walk at ``icews14s_small`` shape (RE-GCN, d=32).

        Each timestamp's queries arrive as batches of 4 against one
        unmoving window, so consecutive steps share a fingerprint and
        the batcher scores a whole timestamp as one group.  This fence
        is ulp-bounded, not bitwise: the group's taller decode matmul
        lands on a different BLAS kernel than the 4-row one, which can
        move the last bit.  Scores must agree to 1e-12, and rank counts
        must agree exactly once exact ties are margined out.  (Bitwise
        equality at fixed shapes is the parity test above.)
        """
        seed_everything(11)
        dataset = generate_dataset("icews14s_small")
        model = build_model("regcn", dataset.num_entities, dataset.num_relations, dim=32)
        model.eval()
        evaluator = TimelineEvaluator(dataset)
        builder = WindowBuilder(
            dataset.num_entities, dataset.num_relations,
            history_length=3, use_global=False,
        )
        for _, quads in sorted(dataset.train.facts_by_time().items()):
            builder.absorb(quads)
        steps = []
        for t, quads in sorted(dataset.valid.facts_by_time().items()) + sorted(
            dataset.test.facts_by_time().items()
        ):
            queries = evaluator.queries_with_inverse(quads)
            window = builder.window_for(queries, prediction_time=int(t))
            for chunk in np.array_split(queries, max(1, len(queries) // 4)):
                steps.append(TimelineStep(int(t), window, chunk))
            builder.absorb(quads)

        per_batch = ExecutionPlan(model, cache=EncoderStateCache(capacity=16, owner="per_batch"))
        expected = [per_batch.entity_scores(s.window, s.queries) for s in steps]
        blocked = ExecutionPlan(model, cache=EncoderStateCache(capacity=16, owner="blocked"))
        batcher = TimelineBatcher(blocked, num_entities=dataset.num_entities, owner="replay")
        got = [rows for _, rows, _ in batcher.run(iter(steps), entities=True)]

        assert len(got) == len(expected)
        margin = 1e-9
        for step, want, have in zip(steps, expected, got):
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)
            objects = step.queries[:, 2]
            gold = want[np.arange(len(objects)), objects][:, None]
            # an exact tie sits on the `>` boundary, where a one-ulp
            # kernel difference flips the count: margin ties out
            assert ((want > gold + margin).sum(axis=1)
                    == (have > gold + margin).sum(axis=1)).all()
        assert batcher.last_stats["groups"] < batcher.last_stats["steps"]


class TestEvaluatorBatchedWalk:
    def _reference_walk(self, model, evaluator, builder, eval_split, warmup):
        """The pre-batcher per-timestamp loop, kept as an oracle."""
        plan = evaluator.make_plan(model)
        builder.reset()
        for split in warmup:
            for _, quads in sorted(split.facts_by_time().items()):
                builder.absorb(quads)
        ranks = []
        for t, quads in sorted(eval_split.facts_by_time().items()):
            time_filter = build_time_filter(quads, evaluator.num_relations)
            queries = evaluator.queries_with_inverse(quads)
            window = builder.window_for(queries, prediction_time=t)
            scores = plan.entity_scores(window, queries)
            ranks.append(filtered_ranks(scores, queries, time_filter))
            builder.absorb(quads)
        return summarize_ranks(ranks)

    def test_walk_metrics_match_reference(self, tiny_dataset):
        seed_everything(31)
        model = build_model("regcn", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        model.eval()
        evaluator = TimelineEvaluator(tiny_dataset)

        def builder():
            return WindowBuilder(
                tiny_dataset.num_entities, tiny_dataset.num_relations,
                history_length=2, use_global=False,
            )

        expected = self._reference_walk(
            model, evaluator, builder(), tiny_dataset.valid, (tiny_dataset.train,)
        )
        got = evaluator.evaluate_walk(
            model, builder(), tiny_dataset.valid, warmup_splits=(tiny_dataset.train,)
        )
        assert got.mrr == expected.mrr
        assert got.hits(1) == expected.hits(1)
        assert got.hits(10) == expected.hits(10)
        stats = evaluator.last_walk_stats
        assert stats["eval_steps"] == stats["eval_timestamps"]
        assert stats["eval_groups"] >= 1
        assert stats["eval_wall_seconds"] > 0

    def test_joint_walk_stats_and_results(self, tiny_dataset):
        seed_everything(37)
        model = build_model("hisres", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        model.eval()
        evaluator = TimelineEvaluator(tiny_dataset)
        builder = WindowBuilder(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            history_length=2, use_global=True,
        )
        entity_result, relation_result = evaluator.evaluate_joint(
            model, builder, tiny_dataset.valid,
            warmup_splits=(tiny_dataset.train,), max_timestamps=3,
        )
        assert 0 <= entity_result.mrr <= 1
        assert relation_result is not None
        assert 1 <= evaluator.last_walk_stats["eval_timestamps"] <= 3


class TestSampledEvaluationFence:
    def _eval(self, model, dataset, plan):
        evaluator = TimelineEvaluator(dataset)
        builder = WindowBuilder(
            dataset.num_entities, dataset.num_relations,
            history_length=2, use_global=False,
        )
        return evaluator.evaluate_walk(
            model, builder, dataset.valid,
            warmup_splits=(dataset.train,), max_timestamps=4, plan=plan,
        )

    def test_exhaustive_fanout_bitwise_equals_full_plan(self, tiny_dataset):
        seed_everything(41)
        model = build_model("regcn", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        model.eval()
        full_plan = ExecutionPlan(
            model, cache=EncoderStateCache(capacity=8, owner="fence_full")
        )
        full = self._eval(model, tiny_dataset, full_plan)
        scoped_plan = ScopedExecutionPlan(
            ExecutionPlan(model, cache=EncoderStateCache(capacity=8, owner="fence_scoped")),
            NeighborSampler("full,full", owner="fence_test"),
        )
        sampled = self._eval(model, tiny_dataset, scoped_plan)
        # exhaustive fanouts are the identity: bitwise-equal metrics
        assert sampled.mrr == full.mrr
        assert np.array_equal(sampled.ranks, full.ranks)
        assert scoped_plan.scoped_encodes == 0

    def test_capped_fanout_completes(self, tiny_dataset):
        seed_everything(43)
        model = build_model("regcn", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        model.eval()
        scoped_plan = ScopedExecutionPlan(
            ExecutionPlan(model, cache=EncoderStateCache(capacity=8, owner="fence_cap")),
            NeighborSampler("2,2", seed=0, owner="fence_cap"),
        )
        result = self._eval(model, tiny_dataset, scoped_plan)
        assert 0 <= result.mrr <= 1


class TestForecasterTimeline:
    def test_predict_timeline_matches_predict_batch(self, tiny_dataset):
        seed_everything(47)
        model = build_model("regcn", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        model.eval()

        def forecaster():
            f = Forecaster(
                model,
                num_entities=tiny_dataset.num_entities,
                num_relations=tiny_dataset.num_relations,
                use_global=False,
            )
            f.warm_up(tiny_dataset.train, max_timestamps=4)
            return f

        # multi-row requests: single-row decodes may route through a
        # different BLAS kernel (gemv vs gemm) and differ at the ulp
        queries = [
            np.array([[i, i % tiny_dataset.num_relations],
                      [i + 1, (i + 2) % tiny_dataset.num_relations],
                      [i + 3, (i + 1) % tiny_dataset.num_relations]])
            for i in range(5)
        ]
        reference = forecaster()
        expected = [reference.predict_batch(q, prediction_time=99) for q in queries]

        batched = forecaster()
        got = batched.predict_timeline((q, 99) for q in queries)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(np.asarray(want), np.asarray(have))
        stats = batched.last_timeline_stats
        assert stats["steps"] == 5
        # no history moved between requests: one group, one encode
        assert stats["groups"] == 1

    def test_predict_timeline_observe_seals_groups(self, tiny_dataset):
        seed_everything(53)
        model = build_model("regcn", tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        model.eval()
        f = Forecaster(
            model,
            num_entities=tiny_dataset.num_entities,
            num_relations=tiny_dataset.num_relations,
            use_global=False,
        )
        f.warm_up(tiny_dataset.train, max_timestamps=4)
        quads = tiny_dataset.valid.quads[:4]
        q = np.array([[1, 0]])
        scores = f.predict_timeline(
            [(q, 90), (q, 90), (q, 91, quads), (q, 92), (q, 92)]
        )
        assert len(scores) == 5
        # the observation between step 3 and 4 splits the walk
        assert f.last_timeline_stats["groups"] >= 2


class TestCliSampledEval:
    def test_eval_sampler_flag(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint = str(tmp_path / "model.ckpt")
        assert main([
            "train", "regcn", "unit_tiny",
            "--dim", "8", "--epochs", "1", "--patience", "1",
            "--save", checkpoint,
        ]) == 0
        capsys.readouterr()
        ledger = str(tmp_path / "ledger.jsonl")
        assert main([
            "eval", "unit_tiny",
            "--load-checkpoint", checkpoint,
            "--sampler", "fanout=8,4",
            "--ledger", ledger,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampler"] == "fanout=8,4"
        assert payload["eval_groups"] >= 1
        assert payload["eval_wall_seconds"] > 0
        record = json.loads(open(ledger).read().strip().splitlines()[-1])
        assert record["metrics"]["eval_groups"] >= 1
