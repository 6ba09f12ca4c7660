"""RETIA (Liu et al., ICDE 2023): relation-entity twin-interact
aggregation.

Mechanism kept: *twin* aggregation — per snapshot, entities aggregate
over the ordinary graph while relations aggregate over the **line
graph** (relations connected through shared entities), and both are
evolved with GRUs so entity and relation dynamics inform each other.
Simplifications: the original's hyperedge construction is reduced to
the three shared-entity modes of :func:`build_line_graph`; decoding is
ConvTransE as in the RE-GCN family.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn import Embedding, GRUCell, cross_entropy
from repro.nn.tensor import Tensor
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.compgcn import CompGCNStack
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import l2_normalize_rows
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow
from repro.graphs.line_graph import line_graph


class RETIA(TKGBaseline):
    """Twin entity/relation aggregation over snapshot + line graphs."""

    requirements = ModelRequirements(recent_snapshots=True)
    supports_query_scoping = True

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        num_layers: int = 2,
        dropout: float = 0.1,
        alpha: float = 0.7,
        channels: int = 8,
        kernel_size: int = 3,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.alpha = alpha
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        # line-graph "relations" are the 3 co-occurrence modes
        self.mode_embedding = Embedding(3, dim)
        self.entity_gcn = CompGCNStack(dim, num_layers, update_relations=False, dropout=dropout)
        self.relation_gcn = CompGCNStack(dim, num_layers, update_relations=False, dropout=dropout)
        self.entity_gru = GRUCell(dim, dim)
        self.relation_gru = GRUCell(dim, dim)
        self.entity_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)
        self.relation_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)

    # ------------------------------------------------------------------
    def encode(self, window: HistoryWindow) -> EncoderState:
        e_state = l2_normalize_rows(window.scope_entities(self.entity.all()))
        r_state = self.relation.all()
        modes = self.mode_embedding.all()
        for graph in window.snapshots:
            e_agg, _ = self.entity_gcn(e_state, r_state, graph)
            line = line_graph(graph)
            r_agg, _ = self.relation_gcn(r_state, modes, line)
            e_state = l2_normalize_rows(self.entity_gru(e_agg, e_state))
            r_state = self.relation_gru(r_agg, r_state)
        return self._make_state(window, e_state, r_state)

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        return self.entity_decoder(s, r, state.entity_matrix)

    def decode_relations(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        o = state.entity_matrix.index_select(queries[:, 2])
        return self.relation_decoder(s, o, state.relation_matrix)

    def decode_loss(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        entity_logits = self.decode(state, queries)
        relation_logits = self.decode_relations(state, queries)
        return cross_entropy(entity_logits, queries[:, 2]) * self.alpha + cross_entropy(
            relation_logits, queries[:, 1]
        ) * (1.0 - self.alpha)
