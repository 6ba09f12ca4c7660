"""xERTE (Han et al., ICLR 2021): explainable subgraph reasoning.

Mechanism kept: per-query **temporal subgraph expansion** — starting
from the query subject, candidate answers are scored by walking edges
of the recent history with attention that decays in time, so every
prediction is grounded in an explicit evidence subgraph (the original's
explainability claim).  Simplifications: two expansion hops over the
window's snapshot graphs; attention is a learned bilinear score with an
exponential time-decay prior, rather than the original's iteratively
pruned attention flow.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn import Embedding, Linear, Parameter, init
from repro.nn import functional as F
from repro.nn.segment import SegmentLayout, segment_sum_data
from repro.nn.tensor import Tensor, concat
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class XERTE(TKGBaseline):
    """Query-rooted temporal subgraph walker with time-decayed attention."""

    requirements = ModelRequirements(recent_snapshots=True)

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        hops: int = 2,
        decay: float = 0.5,
        dropout: float = 0.1,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.hops = hops
        self.decay = decay
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.edge_score = Linear(3 * dim, 1, bias=False)
        self.query_proj = Linear(2 * dim, dim)
        self.fallback_scale = Parameter(init.ones((1,)))

    # ------------------------------------------------------------------
    def encode(self, window: HistoryWindow) -> EncoderState:
        """Score every recent edge once, newest snapshot first.

        ``aux`` holds one time-decayed, relation-compatibility weight
        vector per non-empty snapshot; ``int_aux`` holds the matching
        ``(src, dst)`` edge lists the query walk in :meth:`decode`
        follows.
        """
        ent_emb = self.entity.all()
        rel_emb = self.relation.all()
        compat, edges = [], []
        for age, graph in enumerate(reversed(window.snapshots)):
            if graph.num_edges == 0:
                continue
            triples = concat(
                [ent_emb.index_select(graph.src), rel_emb.index_select(graph.rel),
                 ent_emb.index_select(graph.dst)],
                axis=1,
            )
            score = self.edge_score(triples).data.reshape(-1)
            compat.append(Tensor(np.exp(np.clip(score, -10, 10)) * self.decay**age))
            edges += [graph.src, graph.dst]
        return self._make_state(window, ent_emb, rel_emb, aux=tuple(compat), int_aux=tuple(edges))

    def _walk(self, state: EncoderState, queries: np.ndarray) -> np.ndarray:
        """Propagate per-query attention mass along the encoded edges.

        Returns a (n, |E|) non-negative evidence matrix: how much
        time-decayed, relation-compatible attention flowed from each
        query's subject to each candidate entity.
        """
        n = len(queries)
        mass = np.zeros((n, self.num_entities))
        mass[np.arange(n), queries[:, 0]] = 1.0
        evidence = np.zeros((n, self.num_entities))
        for compat, src, dst in zip(state.aux, state.int_aux[0::2], state.int_aux[1::2]):
            dst_layout = SegmentLayout(dst, self.num_entities)
            current = mass
            for _ in range(self.hops):
                contrib = current[:, src] * compat.data[None, :]
                flowed = segment_sum_data(contrib.T, dst_layout).T
                evidence += flowed
                current = flowed / (flowed.sum(axis=1, keepdims=True) + 1e-9)
        return evidence

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        query_vec = F.tanh(self.query_proj(concat([s, r], axis=1)))
        semantic = query_vec @ state.entity_matrix.T
        # log-evidence bonus keeps the walk differentiable-free but the
        # semantic term trainable; fallback_scale learns their balance
        bonus = Tensor(np.log1p(self._walk(state, queries)))
        return semantic + bonus * self.fallback_scale

    def _walk_scores(self, window: HistoryWindow, queries: np.ndarray) -> np.ndarray:
        """The walk's evidence matrix for ``queries`` over ``window``."""
        with self.inference_mode():
            return self._walk(self.encode(window), np.asarray(queries, dtype=np.int64))

    def explain(self, window: HistoryWindow, query: np.ndarray, top_k: int = 5) -> List[Dict]:
        """Evidence entities behind one query's prediction (by walk mass)."""
        evidence = self._walk_scores(window, np.asarray(query).reshape(1, -1))[0]
        order = np.argsort(evidence)[::-1][:top_k]
        return [
            {"entity": int(e), "evidence_mass": float(evidence[e])}
            for e in order
            if evidence[e] > 0
        ]
