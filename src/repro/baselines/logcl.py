"""LogCL (Chen et al., 2024): local-global history-aware contrastive
learning — the strongest published baseline in Table 3.

Mechanism kept: a RE-GCN-style *local* recurrent encoder; a *global*
encoder over the query-relevant historical graph with **entity-aware
attention** (attention logits conditioned on the query-side subject
embedding); fusion of the two views; and a contrastive loss pulling
the local and global representations of the same entity together.
Simplifications: one attention head; the contrastive temperature is
fixed; raw/inverse phases share one pass (as elsewhere in this
harness).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Embedding, Linear, cross_entropy
from repro.nn import functional as F
from repro.nn.module import Module, ModuleList
from repro.nn.segment import segment_sum
from repro.nn.tensor import Tensor, concat
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import MultiGranularityEvolutionaryEncoder
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow
from repro.graphs.compiled import compiled
from repro.graphs.snapshot import SnapshotGraph


class EntityAwareAttention(Module):
    """One hop of LogCL's entity-aware attention over G^H_t.

    The attention logit of edge (s, r, o) uses the *current* node
    states, which already encode the local evolution of the query
    subject — this is the "entity-aware" conditioning of the original.
    """

    def __init__(self, dim: int, leaky_slope: float = 0.2):
        super().__init__()
        self.attn = Linear(3 * dim, 1, bias=False)
        self.message_proj = Linear(dim, dim, bias=False)
        self.self_proj = Linear(dim, dim, bias=False)
        self.leaky_slope = leaky_slope

    def forward(self, entity_emb: Tensor, relation_emb: Tensor, graph: SnapshotGraph) -> Tensor:
        if graph.num_edges == 0:
            return F.relu(self.self_proj(entity_emb))
        plan = compiled(graph)
        subj = entity_emb.index_select(graph.src)
        rel = relation_emb.index_select(graph.rel)
        obj = entity_emb.index_select(graph.dst)
        logits = F.leaky_relu(
            self.attn(concat([subj, rel, obj], axis=1)), self.leaky_slope
        ).reshape(graph.num_edges)
        weights = F.segment_softmax(logits, plan.dst_layout)
        messages = self.message_proj(subj + rel) * weights.reshape(-1, 1)
        aggregated = segment_sum(messages, plan.dst_layout)
        return F.relu(aggregated + self.self_proj(entity_emb))


class LogCL(TKGBaseline):
    """Local-global fusion with a contrastive alignment term."""

    requirements = ModelRequirements(recent_snapshots=True, global_graph=True)
    supports_query_scoping = True

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        num_layers: int = 2,
        dropout: float = 0.1,
        alpha: float = 0.7,
        contrastive_weight: float = 0.1,
        temperature: float = 0.5,
        channels: int = 8,
        kernel_size: int = 3,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.alpha = alpha
        self.contrastive_weight = contrastive_weight
        self.temperature = temperature
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.local_encoder = MultiGranularityEvolutionaryEncoder(
            dim,
            num_layers=num_layers,
            dropout=dropout,
            use_relation_updating=True,
            use_time_encoding=False,
            use_inter_snapshot=False,
        )
        self.global_layers = ModuleList([EntityAwareAttention(dim) for _ in range(num_layers)])
        self.entity_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)
        self.relation_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)

    # ------------------------------------------------------------------
    def encode(self, window: HistoryWindow) -> EncoderState:
        """Both views; fused is the main matrix, (local, global) ride in aux.

        Exactly :meth:`encode_history` then :meth:`encode_query`.
        """
        return self.encode_query(window, self.encode_history(window))

    def encode_history(self, window: HistoryWindow) -> EncoderState:
        """Step one, query-independent: the local view and R_t."""
        e_local, _, relation_matrix = self.local_encoder(
            window.scope_entities(self.entity.all()),
            self.relation.all(),
            window.snapshots,
            [],
            window.deltas,
        )
        return self._make_state(window, e_local, relation_matrix)

    def encode_query(self, window: HistoryWindow, history: EncoderState) -> EncoderState:
        """Step two: entity-aware attention over G^H_t and the fusion."""
        e_local, relation_matrix = history.entity_matrix, history.relation_matrix
        e_global = e_local
        if window.global_graph is not None:
            for layer in self.global_layers:
                e_global = layer(e_global, relation_matrix, window.global_graph)
        fused = (e_local + e_global) * 0.5
        return self._make_state(window, fused, relation_matrix, aux=(e_local, e_global))

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

    def _contrastive(self, e_local: Tensor, e_global: Tensor, nodes: np.ndarray) -> Tensor:
        """InfoNCE between each node's local and global views."""
        local = e_local.index_select(nodes)
        global_ = e_global.index_select(nodes)
        # cosine similarity matrix
        def normalize(x: Tensor) -> Tensor:
            norm = ((x * x).sum(axis=1, keepdims=True) + 1e-9) ** 0.5
            return x / norm

        sim = (normalize(local) @ normalize(global_).T) * (1.0 / self.temperature)
        targets = np.arange(len(nodes))
        return cross_entropy(sim, targets)

    def aux_entity_slots(self, state: EncoderState) -> tuple:
        """Both aux slots are per-entity views (local, global)."""
        return (0, 1)

    def decode_loss(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        e_local, e_global = state.aux
        entity_logits = self.decode(state, queries)
        relation_logits = self.decode_relations(state, queries)
        total = cross_entropy(entity_logits, queries[:, 2]) * self.alpha + cross_entropy(
            relation_logits, queries[:, 1]
        ) * (1.0 - self.alpha)
        nodes = np.unique(queries[:, 0])
        if len(nodes) > 1:
            total = total + self._contrastive(e_local, e_global, nodes) * self.contrastive_weight
        return total
