"""RE-GCN (Li et al., 2021): evolutional representation learning.

Mechanism kept in full: per-snapshot CompGCN aggregation with the
"subject + relation" composition, entity evolution through a GRU,
relation evolution from pooled entity embeddings, and a ConvTransE
decoder with joint entity/relation loss.  This is exactly the
intra-snapshot path of HisRES minus time encoding, multi-granularity,
self-gating, and the global relevance encoder — which is what makes the
HisRES-vs-RE-GCN comparison in Table 3 meaningful.  The original's
static-graph augmentation is dropped (our synthetic data carries no
static entity attributes).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Embedding, cross_entropy
from repro.nn.tensor import Tensor
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import MultiGranularityEvolutionaryEncoder
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class REGCN(TKGBaseline):
    """Recurrent evolutional GCN with ConvTransE decoding."""

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
        self.encoder = MultiGranularityEvolutionaryEncoder(
            dim,
            num_layers=num_layers,
            dropout=dropout,
            use_relation_updating=True,
            use_time_encoding=False,
            use_inter_snapshot=False,
        )
        self.entity_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)
        self.relation_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)

    def encode(self, window: HistoryWindow) -> EncoderState:
        e, _, r = self.encoder(
            window.scope_entities(self.entity.all()),
            self.relation.all(),
            window.snapshots,
            [],
            window.deltas,
        )
        return self._make_state(window, e, r)

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        return self.entity_decoder(s, r, state.entity_matrix)

    def decode_entity_range(
        self, state: EncoderState, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Sharded serving decode over candidates ``[lo, hi)`` (tile grid)."""
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        return self.entity_decoder.score_range(s, r, state.entity_matrix, lo, hi)

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
