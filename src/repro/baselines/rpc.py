"""RPC (Liang et al., SIGIR 2023): relational correlations and periodic
events via two correspondence units.

Mechanism kept:

- **RCU (relational correspondence unit)** — relation representations
  aggregate over the rule-style line graph so correlated relations
  inform each other (like RETIA, but weighted by co-occurrence counts);
- **PCU (periodic correspondence unit)** — a periodic time encoding is
  injected per snapshot so recurring interaction cycles can be matched;
- snapshot-level weighting: a learned softmax over the history window
  weights each snapshot's contribution to the final entity state.

Simplifications: rules are the shared-entity line-graph modes; the
snapshot weighting replaces the original's gated correspondence
propagation.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Embedding, GRUCell, Parameter, cross_entropy, init
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.compgcn import CompGCNStack
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import l2_normalize_rows
from repro.core.execution import EncoderState
from repro.core.time_encoding import TimeEncoding
from repro.core.window import HistoryWindow
from repro.graphs.line_graph import line_graph


class RPC(TKGBaseline):
    """Relational + periodic correspondence units over recent snapshots."""

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
        max_window: int = 16,
        channels: int = 8,
        kernel_size: int = 3,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.alpha = alpha
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.mode_embedding = Embedding(3, dim)
        self.entity_gcn = CompGCNStack(dim, num_layers, update_relations=False, dropout=dropout)
        self.rcu = CompGCNStack(dim, 1, update_relations=False, dropout=dropout)
        self.pcu = TimeEncoding(dim)
        self.entity_gru = GRUCell(dim, dim)
        self.snapshot_weights = Parameter(init.zeros((max_window,)))
        self.entity_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)
        self.relation_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)

    def encode(self, window: HistoryWindow) -> EncoderState:
        e_state = l2_normalize_rows(window.scope_entities(self.entity.all()))
        r_state = self.relation.all()
        modes = self.mode_embedding.all()
        states = []
        for graph, delta in zip(window.snapshots, window.deltas):
            conditioned = self.pcu(e_state, delta)  # periodic unit
            e_agg, _ = self.entity_gcn(conditioned, r_state, graph)
            r_state, _ = self.rcu(r_state, modes, line_graph(graph))  # relational unit
            e_state = l2_normalize_rows(self.entity_gru(e_agg, conditioned))
            states.append(e_state)
        if not states:
            return self._make_state(window, e_state, r_state)
        # learned snapshot-importance weighting over the window
        weights = F.softmax(self.snapshot_weights[: len(states)], axis=0)
        combined = states[0] * weights[0]
        for i, state in enumerate(states[1:], start=1):
            combined = combined + state * weights[i]
        return self._make_state(window, combined, r_state)

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
