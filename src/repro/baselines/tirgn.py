"""TiRGN (Li et al., 2022): time-guided recurrent graph network with
local-global historical patterns.

Mechanism kept: a RE-GCN-style local recurrent encoder, a *time-guided*
decoder (periodic time code injected into the query), and the global
history vocabulary used as a mask that redistributes score mass onto
historically connected candidates — blended with a fixed local/global
coefficient as in the original.  Simplification: the original's
separate raw/inverse history vocabularies are unified (our vocabulary
already contains inverse pairs).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Embedding, cross_entropy, nll_loss
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.baselines.base import HistoryMask, ModelRequirements, TKGBaseline, window_vocabulary
from repro.core.decoder import ConvTransEDecoder
from repro.core.execution import EncoderState
from repro.core.evolution import MultiGranularityEvolutionaryEncoder
from repro.core.time_encoding import TimeEncoding
from repro.core.window import HistoryWindow


class TiRGN(TKGBaseline):
    """Local recurrent encoder + global history mask + time-guided decode."""

    requirements = ModelRequirements(recent_snapshots=True, vocabulary=True)

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        num_layers: int = 2,
        dropout: float = 0.1,
        global_weight: float = 0.3,
        alpha: float = 0.7,
        channels: int = 8,
        kernel_size: int = 3,
    ):
        super().__init__(num_entities, num_relations)
        if not 0.0 <= global_weight <= 1.0:
            raise ValueError("global_weight must be in [0, 1]")
        self.dim = dim
        self.global_weight = global_weight
        self.alpha = alpha
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.encoder = MultiGranularityEvolutionaryEncoder(
            dim,
            num_layers=num_layers,
            dropout=dropout,
            use_relation_updating=True,
            use_time_encoding=True,
            use_inter_snapshot=False,
        )
        self.time_encoding = TimeEncoding(dim)
        self.entity_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)
        self.relation_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)

    def encode(self, window: HistoryWindow) -> EncoderState:
        """Local recurrent encode; the vocabulary index rides ``int_aux``."""
        entity_matrix, _, relation_matrix = self.encoder(
            self.entity.all(), self.relation.all(), window.snapshots, [], window.deltas
        )
        return self._make_state(
            window, entity_matrix, relation_matrix, int_aux=window_vocabulary(self, window)
        )

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        # time-guided: condition the subject on the prediction step
        s = self.time_encoding(state.entity_matrix.index_select(queries[:, 0]), 1.0)
        r = state.relation_matrix.index_select(queries[:, 1])
        local = self.entity_decoder(s, r, state.entity_matrix)
        masked = HistoryMask(state, queries, self.num_entities).keep_seen(local)
        mixed = (
            F.softmax(masked) * self.global_weight
            + F.softmax(local) * (1.0 - self.global_weight)
        )
        return (mixed + 1e-12).log()

    def decode_loss(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        """Joint entity + relation objective from ONE encode (HisRES Eq. 15
        style); the relation decoder only trains, it is not a ranking head."""
        queries = np.asarray(queries, dtype=np.int64)
        entity_loss = nll_loss(self.decode(state, queries), queries[:, 2])
        s = state.entity_matrix.index_select(queries[:, 0])
        o = state.entity_matrix.index_select(queries[:, 2])
        relation_logits = self.relation_decoder(s, o, state.relation_matrix)
        relation_loss = cross_entropy(relation_logits, queries[:, 1])
        return entity_loss * self.alpha + relation_loss * (1.0 - self.alpha)
