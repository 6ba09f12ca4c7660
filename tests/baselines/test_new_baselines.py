"""Mechanism-specific behaviour of the extended baselines
(xERTE, RETIA, RPC, HGLS). The generic scoring/loss/gradient contracts
are covered by the registry-parametrized tests in test_baselines.py."""

import gc

import numpy as np
import pytest

from repro.baselines import HGLS, RETIA, RPC, XERTE
from repro.core.window import HistoryWindow, WindowBuilder
from repro.graphs.line_graph import build_line_graph
from repro.graphs.snapshot import build_snapshot

E, R = 12, 4


def _window(use_global=False):
    b = WindowBuilder(E, R, history_length=3, use_global=use_global)
    b.absorb(np.array([[0, 0, 1, 0], [2, 1, 3, 0]]))
    b.absorb(np.array([[1, 2, 4, 1], [0, 0, 2, 1]]))
    b.absorb(np.array([[4, 3, 5, 2]]))
    queries = np.array([[0, 0, 1, 3], [1, 2, 4, 3]])
    return b.window_for(queries, prediction_time=3), queries


class TestXERTE:
    def test_evidence_walk_reaches_neighbors(self):
        model = XERTE(E, R, dim=8)
        window, queries = _window()
        evidence = model._walk_scores(window, queries)
        assert evidence.shape == (2, E)
        # query subject 0 has recent edges to 1 and 2: mass must arrive
        assert evidence[0, 1] > 0 or evidence[0, 2] > 0

    def test_no_history_no_evidence(self):
        model = XERTE(E, R, dim=8)
        b = WindowBuilder(E, R, history_length=2, use_global=False)
        queries = np.array([[0, 0, 1, 0]])
        window = b.window_for(queries, prediction_time=0)
        evidence = model._walk_scores(window, queries)
        assert evidence.sum() == 0.0

    def test_explain_returns_ranked_evidence(self):
        model = XERTE(E, R, dim=8)
        window, queries = _window()
        explanation = model.explain(window, queries[0], top_k=3)
        masses = [item["evidence_mass"] for item in explanation]
        assert masses == sorted(masses, reverse=True)
        assert all(m > 0 for m in masses)

    def test_isolated_subject_gets_no_walk_bonus(self):
        model = XERTE(E, R, dim=8)
        window, _ = _window()
        queries = np.array([[11, 0, 1, 3]])  # entity 11 has no history
        evidence = model._walk_scores(window, queries)
        assert evidence.sum() == 0.0


class TestRETIA:
    def test_line_graph_cache_reused(self):
        model = RETIA(E, R, dim=8)
        window, queries = _window()
        model.predict_entities(window, queries)
        memos = [graph._line_graph for graph in window.snapshots]
        assert all(memo is not None for memo in memos)
        model.predict_entities(window, queries)
        # same snapshots, same memoized line graphs: built once each
        assert all(
            graph._line_graph is memo for graph, memo in zip(window.snapshots, memos)
        )

    def test_relation_representations_evolve(self):
        model = RETIA(E, R, dim=8)
        model.eval()
        window, _ = _window()
        state = model.encode(window)
        assert not np.allclose(state.relation_matrix.data, model.relation.weight.data)


@pytest.mark.parametrize("model_cls, layer", [(RETIA, "relation_gcn"), (RPC, "rcu")])
def test_line_graph_never_served_for_another_snapshot(model_cls, layer, monkeypatch):
    """Snapshots are built and dropped one after another, so CPython
    recycles their ids; the line graph the relation layer receives must
    still be the current snapshot's, every step."""
    model = model_cls(E, R, dim=8)
    model.eval()
    relation_layer = getattr(model, layer)
    forward = relation_layer.forward
    served = []

    def recording_forward(states, modes, graph):
        served.append(graph)
        return forward(states, modes, graph)

    monkeypatch.setattr(relation_layer, "forward", recording_forward)
    rng = np.random.default_rng(0)
    for step in range(200):
        quads = np.stack([
            rng.integers(0, E, 6), rng.integers(0, R, 6),
            rng.integers(0, E, 6), np.full(6, step),
        ], axis=1)
        graph = build_snapshot(quads, E, R)
        window = HistoryWindow(
            snapshots=[graph], merged=[], deltas=[1.0],
            global_graph=None, prediction_time=step + 1,
        )
        with model.inference_mode():
            model.encode(window)
        line, fresh = served.pop(), build_line_graph(graph)
        np.testing.assert_array_equal(line.triples(), fresh.triples(), err_msg=str(step))
        del graph, window, line, fresh
        gc.collect()


class TestRPC:
    def test_snapshot_weighting_is_distribution(self):
        from repro.nn import functional as F

        model = RPC(E, R, dim=8)
        weights = F.softmax(model.snapshot_weights[:3], axis=0)
        assert weights.data.sum() == pytest.approx(1.0)

    def test_empty_window_falls_back(self):
        model = RPC(E, R, dim=8)
        b = WindowBuilder(E, R, history_length=2, use_global=False)
        queries = np.array([[0, 0, 1, 0]])
        window = b.window_for(queries, prediction_time=0)
        scores = model.predict_entities(window, queries)
        assert np.all(np.isfinite(scores))


class TestHGLS:
    def test_long_term_memory_by_hand(self):
        """Memory of n: the mean over n's distinct historical facts
        (inverse facts included) of (e_n + e_o) / 2; 0 without history."""
        model = HGLS(E, R, dim=8)
        b = WindowBuilder(E, R, history_length=2, use_global=False)
        b.absorb(np.array([[0, 0, 1, 0], [2, 1, 3, 0]]))
        # (0, 0, 1) again is the same fact; (0, 3, 1) is another one
        b.absorb(np.array([[0, 0, 1, 1], [0, 2, 4, 1], [0, 3, 1, 1]]))
        window = b.window_for(np.array([[0, 0, 1, 2]]), prediction_time=2)

        e = model.entity.weight.data

        def half(n, o):
            return (e[n] + e[o]) / 2

        expected = np.zeros_like(e)
        expected[0] = (half(0, 1) + half(0, 4) + half(0, 1)) / 3
        expected[1] = (half(1, 0) + half(1, 0)) / 2
        expected[2] = half(2, 3)
        expected[3] = half(3, 2)
        expected[4] = half(4, 0)
        memory = model.long_term_memory(window)
        np.testing.assert_allclose(memory, expected, rtol=0, atol=1e-12)
        assert not memory[5:].any()  # entities 5.. have no history
