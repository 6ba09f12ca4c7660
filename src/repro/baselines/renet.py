"""RE-NET (Jin et al., 2020): autoregressive neighborhood encoding.

Mechanism kept: each recent snapshot contributes a *mean aggregation*
of every entity's 1-hop neighbourhood (no relation-aware transform),
and a GRU rolls these per-snapshot summaries forward; an MLP decoder
scores candidates.  Simplifications: the original's per-query subgraph
sampling and global RNN are folded into the shared full-snapshot walk
used by all models in this harness.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Dropout, Embedding, GRUCell, Linear
from repro.nn import functional as F
from repro.nn.segment import segment_sum
from repro.nn.tensor import Tensor, concat
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow
from repro.graphs.compiled import compiled
from repro.graphs.snapshot import SnapshotGraph


class RENet(TKGBaseline):
    """Mean-aggregator + GRU temporal encoder with an MLP decoder."""

    requirements = ModelRequirements(recent_snapshots=True)
    supports_query_scoping = True

    def __init__(self, num_entities: int, num_relations: int, dim: int = 32, dropout: float = 0.1):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.aggregate_proj = Linear(dim, dim, bias=False)
        self.gru = GRUCell(dim, dim)
        self.decoder = Linear(3 * dim, dim)
        self.dropout = Dropout(dropout)

    def _aggregate(self, entity_state: Tensor, graph: SnapshotGraph) -> Tensor:
        """Mean of (neighbor + relation) messages into each entity."""
        if graph.num_edges == 0:
            return entity_state
        plan = compiled(graph)
        messages = self.aggregate_proj(
            entity_state.index_select(graph.src) + self.relation.all().index_select(graph.rel)
        )
        norm = Tensor(plan.in_degree_norm.reshape(-1, 1))
        pooled = segment_sum(messages * norm, plan.dst_layout)
        return F.tanh(pooled)

    def encode(self, window: HistoryWindow) -> EncoderState:
        state = window.scope_entities(self.entity.all())
        for graph in window.snapshots:
            aggregated = self._aggregate(state, graph)
            state = self.gru(aggregated, state)
        return self._make_state(window, state, None)

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        entity_matrix = state.entity_matrix
        s = entity_matrix.index_select(queries[:, 0])
        r = self.relation(queries[:, 1])
        query_vec = F.relu(self.decoder(concat([s, r, s * r], axis=1)))
        query_vec = self.dropout(query_vec)
        return query_vec @ entity_matrix.T
