"""``HistoryIndex`` against the dict-of-dicts oracle it replaced.

Over random chronological streams with repeated facts, ``max_history``
cutoffs and query sets in varied order, the array-backed index must
give exactly the oracle's G^H triples (edge order included: it decides
the summation order of every segment reduction over G^H), the oracle's
vocabulary CSR arrays, and windows whose fingerprints equal those of
windows assembled from the oracle.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import WindowBuilder
from repro.graphs import HistoryIndex, SnapshotGraph

from tests.graphs.dict_history import DictGlobalIndex, DictVocabulary

E, R = 6, 3  # few ids, so facts and pairs repeat

facts = st.tuples(st.integers(0, E - 1), st.integers(0, R - 1), st.integers(0, E - 1))
# (time step, facts) per snapshot; a step of 0 repeats the timestamp
snapshots = st.lists(st.tuples(st.integers(0, 2), st.lists(facts, max_size=12)), max_size=8)
# query pairs over the doubled relation space, duplicates and any order
query_pairs = st.lists(
    st.tuples(st.integers(0, E - 1), st.integers(0, 2 * R - 1)), min_size=1, max_size=14
)
cutoffs = st.sampled_from([None, 1, 2, 4])


def _stream(steps):
    t = 0
    for step, rows in steps:
        t += step
        yield t, np.array([(s, r, o, t) for s, r, o in rows], dtype=np.int64).reshape(-1, 4)


def _doubled(quads):
    inverse = np.stack([quads[:, 2], quads[:, 1] + R, quads[:, 0], quads[:, 3]], axis=1)
    return np.concatenate([quads, inverse])


def _assert_vocabulary_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@given(snapshots, st.lists(query_pairs, min_size=1, max_size=3), cutoffs)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_index_matches_dict_oracle(steps, query_sets, max_history):
    index = HistoryIndex(max_history=max_history)
    oracle, vocab = DictGlobalIndex(max_history=max_history), DictVocabulary()
    for t, quads in _stream(steps):
        doubled = _doubled(quads)
        index.add_snapshot(doubled)
        oracle.add_snapshot(doubled)
        vocab.add_snapshot(doubled)
        assert (index.num_pairs, index.num_facts) == (oracle.num_pairs, oracle.num_facts)
        for pairs in query_sets:
            for ordered in (pairs, pairs[::-1], frozenset(pairs)):
                got = index.triples(ordered, now=t + 1)
                want = oracle.triples(ordered, now=t + 1)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            subjects = np.array([p[0] for p in pairs])
            relations = np.array([p[1] for p in pairs])
            _assert_vocabulary_equal(
                index.vocabulary(subjects, relations), vocab.vocabulary(subjects, relations)
            )


@given(snapshots, query_pairs, cutoffs)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_window_fingerprints_match_dict_oracle(steps, pairs, max_history):
    builder = WindowBuilder(
        E, R, history_length=2, use_global=True, global_max_history=max_history,
        track_vocabulary=True,
    )
    oracle, vocab = DictGlobalIndex(max_history=max_history), DictVocabulary()
    queries = np.array([(s, r, 0, 0) for s, r in pairs], dtype=np.int64)
    for t, quads in _stream(steps):
        window = builder.window_for(queries, prediction_time=t)
        # the builder walks the query pairs in this set's iteration order
        triples = oracle.triples(frozenset(pairs), now=t)
        expected = dataclasses.replace(
            window,
            global_graph=SnapshotGraph(
                src=triples[:, 0], rel=triples[:, 1], dst=triples[:, 2],
                num_entities=E, num_relations=2 * R,
            ),
            vocabulary=vocab.vocabulary(queries[:, 0], queries[:, 1]),
            _fingerprint=None,
        )
        for field in ("src", "rel", "dst"):
            np.testing.assert_array_equal(
                getattr(window.global_graph, field), getattr(expected.global_graph, field)
            )
        _assert_vocabulary_equal(window.vocabulary, expected.vocabulary)
        assert window.fingerprint() == expected.fingerprint()
        builder.absorb(quads)
        if len(quads):
            oracle.add_snapshot(_doubled(quads))
            vocab.add_snapshot(_doubled(quads))

