"""CEN (Li et al., 2022): complex evolutional pattern learning.

Mechanism kept: *length diversity* — the model scores a query with an
ensemble of evolutional encoders run over multiple history lengths and
combines them, so patterns of different temporal extent each get a
matched-length view.  Simplifications: the original's curriculum
learning and online re-configuration are dropped; the length-aware CNN
is replaced by a learned softmax combination over per-length
ConvTransE scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import Embedding, Parameter, init
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import MultiGranularityEvolutionaryEncoder
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class CEN(TKGBaseline):
    """Ensemble of evolution encoders over multiple history lengths."""

    requirements = ModelRequirements(recent_snapshots=True)
    supports_query_scoping = True

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        lengths: Sequence[int] = (1, 2, 4),
        num_layers: int = 2,
        dropout: float = 0.1,
        channels: int = 8,
        kernel_size: int = 3,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.lengths = tuple(sorted(set(lengths)))
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
        self.decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)
        self.length_weights = Parameter(init.zeros((len(self.lengths),)))

    def encode(self, window: HistoryWindow) -> EncoderState:
        """Run every per-length encoder once; matrices ride in ``aux``."""
        e_init = window.scope_entities(self.entity.all())
        aux = []
        for length in self.lengths:
            snapshots = window.snapshots[-length:] if length else []
            deltas = window.deltas[-length:]
            entity_matrix, _, relation_matrix = self.encoder(
                e_init, self.relation.all(), snapshots, [], deltas
            )
            aux.extend((entity_matrix, relation_matrix))
        return self._make_state(window, None, None, aux=tuple(aux))

    def aux_entity_slots(self, state: EncoderState) -> tuple:
        """Even slots are the per-length entity matrices (odd: relations)."""
        return tuple(range(0, len(state.aux), 2))

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        mix = F.softmax(self.length_weights, axis=0)
        total = None
        for i in range(len(self.lengths)):
            entity_matrix, relation_matrix = state.aux[2 * i], state.aux[2 * i + 1]
            s = entity_matrix.index_select(queries[:, 0])
            r = relation_matrix.index_select(queries[:, 1])
            scores = self.decoder(s, r, entity_matrix) * mix[i]
            total = scores if total is None else total + scores
        return total
