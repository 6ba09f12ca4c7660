"""Globally relevant graph construction (G^H_t) and pruning."""

import numpy as np
import pytest

from repro.core.window import WindowBuilder
from repro.graphs import HistoryIndex


def _builder(**kw):
    return HistoryIndex(**kw)


class TestIndexing:
    def test_relevant_triples_for_query_pair(self):
        b = _builder()
        b.add_snapshot(np.array([[1, 0, 2, 0], [1, 0, 3, 0], [4, 1, 5, 0]]))
        triples = b.triples([(1, 0)])
        got = set(map(tuple, triples))
        assert got == {(1, 0, 2), (1, 0, 3)}

    def test_irrelevant_pairs_excluded(self):
        b = _builder()
        b.add_snapshot(np.array([[1, 0, 2, 0], [4, 1, 5, 0]]))
        triples = b.triples([(9, 5)])
        assert len(triples) == 0

    def test_accumulates_across_snapshots(self):
        b = _builder()
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        b.add_snapshot(np.array([[1, 0, 7, 1]]))
        got = set(map(tuple, b.triples([(1, 0)])))
        assert got == {(1, 0, 2), (1, 0, 7)}

    def test_duplicate_facts_indexed_once(self):
        b = _builder()
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        b.add_snapshot(np.array([[1, 0, 2, 1]]))
        assert len(b.triples([(1, 0)])) == 1
        assert b.num_facts == 1

    def test_chronological_order_enforced(self):
        b = _builder()
        b.add_snapshot(np.array([[1, 0, 2, 5]]))
        with pytest.raises(ValueError):
            b.add_snapshot(np.array([[1, 0, 2, 3]]))

    def test_empty_snapshot_ignored(self):
        b = _builder()
        b.add_snapshot(np.zeros((0, 4)))
        assert b.num_pairs == 0

    def test_reset(self):
        b = _builder()
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        b.reset()
        assert b.num_pairs == 0
        b.add_snapshot(np.array([[1, 0, 2, 0]]))  # order restriction cleared

    def test_duplicate_query_pairs_deduplicated(self):
        b = _builder()
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        triples = b.triples([(1, 0), (1, 0), (1, 0)])
        assert len(triples) == 1


class TestBuild:
    """G^H_t as the window builder materialises it from the index."""

    def test_build_returns_snapshot_graph(self):
        b = WindowBuilder(num_entities=10, num_relations=3)
        b.absorb(np.array([[1, 0, 2, 0]]))
        g = b.window_for(np.array([[1, 0, 0, 1]]), prediction_time=1).global_graph
        assert g.num_edges == 1
        assert g.num_entities == 10
        assert g.num_relations == 6

    def test_build_empty(self):
        b = WindowBuilder(num_entities=10, num_relations=3)
        g = b.window_for(np.array([[1, 0, 0, 1]]), prediction_time=1).global_graph
        assert g.num_edges == 0


class TestPruning:
    """max_history implements the paper's §5 future-work pruning."""

    def test_recency_cutoff_drops_stale_facts(self):
        b = _builder(max_history=3)
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        b.add_snapshot(np.array([[1, 0, 7, 8]]))
        got = set(map(tuple, b.triples([(1, 0)], now=10)))
        assert got == {(1, 0, 7)}  # fact from t=0 is older than 10 - 3

    def test_reoccurrence_refreshes_timestamp(self):
        b = _builder(max_history=3)
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        b.add_snapshot(np.array([[1, 0, 2, 9]]))  # same fact recurs late
        got = set(map(tuple, b.triples([(1, 0)], now=10)))
        assert got == {(1, 0, 2)}

    def test_now_required_with_cutoff(self):
        b = _builder(max_history=3)
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        with pytest.raises(ValueError):
            b.triples([(1, 0)])

    def test_no_cutoff_keeps_everything(self):
        b = _builder(max_history=None)
        b.add_snapshot(np.array([[1, 0, 2, 0]]))
        b.add_snapshot(np.array([[1, 0, 7, 99]]))
        assert len(b.triples([(1, 0)])) == 2
