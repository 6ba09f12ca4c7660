"""CENET (Xu et al., 2023): historical contrastive learning.

Mechanism kept: the model learns *two* distributions — one over
historical entities (ever seen with the query pair) and one over
non-historical entities — plus a binary classifier deciding which
regime a query belongs to; the classifier gates how the two
distributions are blended, and a contrastive (supervised) objective
pushes query representations of historical/non-historical queries
apart.  Simplification: the original's entity-frequency encoder is a
two-layer MLP here.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Dropout, Embedding, Linear, binary_cross_entropy_with_logits, nll_loss
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat
from repro.baselines.base import HistoryMask, ModelRequirements, TKGBaseline, window_vocabulary
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class CENET(TKGBaseline):
    """Historical vs non-historical contrastive scorer."""

    requirements = ModelRequirements(vocabulary=True)

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        dropout: float = 0.2,
        contrastive_weight: float = 0.1,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.contrastive_weight = contrastive_weight
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.query_proj = Linear(2 * dim, dim)
        self.historical_proj = Linear(dim, num_entities)
        self.nonhistorical_proj = Linear(dim, num_entities)
        self.classifier = Linear(dim, 1)
        self.dropout = Dropout(dropout)

    def encode(self, window: HistoryWindow) -> EncoderState:
        """State: the embedding tables plus the window's vocabulary index."""
        return self._make_state(
            window, self.entity.all(), self.relation.all(),
            int_aux=window_vocabulary(self, window),
        )

    def _query_vec(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        return self.dropout(F.relu(self.query_proj(concat([s, r], axis=1))))

    def _log_probs(self, state: EncoderState, queries: np.ndarray, mask: HistoryMask) -> Tensor:
        q = self._query_vec(state, queries)
        hist_logits = mask.keep_seen(self.historical_proj(q))
        nonhist_logits = mask.keep_unseen(self.nonhistorical_proj(q))
        gate = self.classifier(q).sigmoid()  # P(answer is historical)
        mixed = F.softmax(hist_logits) * gate + F.softmax(nonhist_logits) * (1.0 - gate)
        return (mixed + 1e-12).log()

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        return self._log_probs(state, queries, HistoryMask(state, queries, self.num_entities))

    def decode_loss(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        mask = HistoryMask(state, queries, self.num_entities)
        main = nll_loss(self._log_probs(state, queries, mask), queries[:, 2])
        # supervise the historical/non-historical classifier
        labels = mask.values[np.arange(len(queries)), queries[:, 2]]
        gate_logits = self.classifier(self._query_vec(state, queries)).reshape(len(queries))
        aux = binary_cross_entropy_with_logits(gate_logits, labels)
        return main + aux * self.contrastive_weight
