"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.dataset import TKGDataset
from repro.graphs.history import HistoryIndex, vocabulary_mask
from repro.graphs.snapshot import build_snapshot
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat
from repro.training.metrics import filtered_ranks, hits_at, mrr

# ----------------------------------------------------------------------
# strategies


def quad_arrays(max_entities=8, max_relations=4, max_time=6):
    """(n, 4) integer quad arrays with valid id ranges."""
    return st.integers(1, 30).flatmap(
        lambda n: arrays(
            np.int64,
            (n, 4),
            elements=st.integers(0, max_entities - 1),
        ).map(
            lambda a: np.column_stack(
                [
                    a[:, 0] % max_entities,
                    a[:, 1] % max_relations,
                    a[:, 2] % max_entities,
                    a[:, 3] % max_time,
                ]
            )
        )
    )


float_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


# ----------------------------------------------------------------------
# autodiff invariants


class TestAutogradProperties:
    @given(float_matrices)
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_are_distributions(self, x):
        out = F.softmax(Tensor(x)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)

    @given(float_matrices)
    @settings(max_examples=40, deadline=None)
    def test_log_softmax_exp_consistency(self, x):
        ls = F.log_softmax(Tensor(x)).data
        np.testing.assert_allclose(np.exp(ls).sum(axis=-1), 1.0, rtol=1e-9)

    @given(float_matrices, float_matrices)
    @settings(max_examples=40, deadline=None)
    def test_addition_commutes(self, a, b):
        if a.shape != b.shape:
            return
        left = (Tensor(a) + Tensor(b)).data
        right = (Tensor(b) + Tensor(a)).data
        np.testing.assert_allclose(left, right)

    @given(float_matrices)
    @settings(max_examples=40, deadline=None)
    def test_grad_of_sum_is_ones(self, x):
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    @given(float_matrices)
    @settings(max_examples=30, deadline=None)
    def test_concat_split_roundtrip(self, x):
        t = Tensor(x, requires_grad=True)
        halves = concat([t, t], axis=0)
        assert halves.shape[0] == 2 * x.shape[0]
        np.testing.assert_allclose(halves.data[: x.shape[0]], x)

    @given(
        arrays(np.float64, st.integers(2, 20), elements=st.floats(-5, 5, allow_nan=False)),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_softmax_partitions_unity(self, scores, num_segments):
        segments = np.arange(len(scores)) % num_segments
        out = F.segment_softmax(Tensor(scores), segments, num_segments).data
        for seg in range(num_segments):
            member = out[segments == seg]
            if len(member):
                assert abs(member.sum() - 1.0) < 1e-6


# ----------------------------------------------------------------------
# dataset invariants


class TestDatasetProperties:
    @given(quad_arrays())
    @settings(max_examples=40, deadline=None)
    def test_inverse_doubles_and_roundtrips(self, quads):
        doubled = TKGDataset.add_inverse(quads, num_relations=4)
        assert len(doubled) == 2 * len(quads)
        # applying the inverse map twice recovers the original triple
        inv = doubled[len(quads):]
        np.testing.assert_array_equal(inv[:, 0], quads[:, 2])
        np.testing.assert_array_equal(inv[:, 2], quads[:, 0])
        np.testing.assert_array_equal(inv[:, 1] - 4, quads[:, 1])

    @given(quad_arrays(max_time=12))
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_facts(self, quads):
        ds = TKGDataset(quads, num_entities=8, num_relations=4)
        if ds.num_timestamps < 4:
            return
        try:
            train, valid, test = ds.chronological_split()
        except ValueError:
            return
        assert len(train) + len(valid) + len(test) == len(ds)
        if len(train) and len(valid):
            assert train.quads[:, 3].max() < valid.quads[:, 3].min()
        if len(valid) and len(test):
            assert valid.quads[:, 3].max() < test.quads[:, 3].min()

    @given(quad_arrays())
    @settings(max_examples=40, deadline=None)
    def test_snapshot_inverse_symmetry(self, quads):
        g = build_snapshot(quads, num_entities=8, num_relations=4)
        triples = set(map(tuple, g.triples()))
        for s, r, o in list(triples):
            partner = (o, r + 4, s) if r < 4 else (o, r - 4, s)
            assert partner in triples

    @given(quad_arrays())
    @settings(max_examples=40, deadline=None)
    def test_in_degree_sums_to_edges(self, quads):
        g = build_snapshot(quads, num_entities=8, num_relations=4)
        assert g.in_degree().sum() == g.num_edges


# ----------------------------------------------------------------------
# history / global graph invariants


class TestHistoryProperties:
    @given(quad_arrays(max_time=1))
    @settings(max_examples=40, deadline=None)
    def test_mask_matches_facts(self, quads):
        history = HistoryIndex()
        history.add_snapshot(quads)
        index = history.vocabulary(quads[:, 0], quads[:, 1])
        mask = vocabulary_mask(index, quads[:, 0], quads[:, 1], 8)
        # every recorded fact is marked seen for its own query pair
        assert np.all(mask[np.arange(len(quads)), quads[:, 2]] == 1.0)

    @given(quad_arrays(max_time=1))
    @settings(max_examples=40, deadline=None)
    def test_global_graph_is_subset_of_history(self, quads):
        history = HistoryIndex()
        history.add_snapshot(quads)
        pairs = {(int(q[0]), int(q[1])) for q in quads}
        triples = history.triples(pairs)
        history = {tuple(q[:3]) for q in quads}
        assert set(map(tuple, triples)) <= history
        # and covers every fact whose pair was queried
        assert set(map(tuple, triples)) == {h for h in history if (h[0], h[1]) in pairs}


# ----------------------------------------------------------------------
# metric invariants


class TestMetricProperties:
    @given(arrays(np.int64, st.integers(1, 50), elements=st.integers(1, 100)))
    @settings(max_examples=40, deadline=None)
    def test_mrr_bounds(self, ranks):
        value = mrr(ranks)
        assert 0 < value <= 1

    @given(arrays(np.int64, st.integers(1, 50), elements=st.integers(1, 100)))
    @settings(max_examples=40, deadline=None)
    def test_hits_monotone_in_k(self, ranks):
        values = [hits_at(ranks, k) for k in (1, 3, 10, 100)]
        assert values == sorted(values)

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(4, 10)),
               elements=st.floats(-5, 5, allow_nan=False)),
    )
    @settings(max_examples=40, deadline=None)
    def test_filtering_never_hurts_rank(self, scores):
        n, num_entities = scores.shape
        queries = np.column_stack([
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.arange(n, dtype=np.int64) % num_entities,
        ])
        unfiltered = filtered_ranks(scores, queries, {})
        full_filter = {(0, 0): set(range(num_entities))}
        filtered = filtered_ranks(scores, queries, full_filter)
        assert np.all(filtered <= unfiltered)
        # filtering out every other candidate forces rank 1
        assert np.all(filtered == 1)
