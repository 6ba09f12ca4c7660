"""HGLS (Zhang et al., WWW 2023): long- and short-term representations.

Mechanism kept: **long-term dependencies through same-entity links** —
the original connects every occurrence of an entity across timestamps
so a GNN can mix information over the whole history.  We keep the fixed
point of one mean-aggregation step over that same-entity history: the
long-term memory of entity ``n`` is the mean, over ``n``'s distinct
historical facts ``(n, r, o)`` (inverse facts included), of
``(e_n + e_o) / 2``, from the current entity table.  A learned gate
fuses it with the short-term (recent-window) evolution.  The explicit
temporal supergraph is the simplification.

The memory is read from the window's history facts, so an encode is a
pure function of the weights and the window: cached, tier-shared and
fresh encodes are interchangeable.

The reproduction detail HisRES's related-work section calls out —
"incorporates redundant information from distant timestamps" — shows up
here as the memory's insensitivity to recency: every historical fact
weighs the same, which is exactly why HGLS trails query-conditioned
global structuring (LogCL, HisRES).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Embedding, Linear, cross_entropy
from repro.nn.segment import SegmentLayout, segment_sum_data
from repro.nn.tensor import Tensor
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import MultiGranularityEvolutionaryEncoder
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class HGLS(TKGBaseline):
    """Short-term recurrent encoder + long-term same-entity memory."""

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
        self.short_encoder = MultiGranularityEvolutionaryEncoder(
            dim,
            num_layers=num_layers,
            dropout=dropout,
            use_relation_updating=True,
            use_time_encoding=False,
            use_inter_snapshot=False,
        )
        self.fuse_gate = Linear(dim, dim)
        self.entity_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)
        self.relation_decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)

    # ------------------------------------------------------------------
    def long_term_memory(self, window: HistoryWindow) -> np.ndarray:
        """Per entity, the mean of ``(e_n + e_o) / 2`` over its distinct
        historical facts, in global entity ids; 0 for an entity with no
        history.  Data, not a graph node: no gradient reaches it."""
        if window.facts is None:
            raise RuntimeError("HGLS reads window.facts; build windows with WindowBuilder")
        table = self.entity.weight.data
        layout = SegmentLayout(window.facts.subjects, self.num_entities)
        sums = segment_sum_data(table[window.facts.objects], layout)
        object_mean = sums / np.maximum(layout.counts, 1)[:, None]
        return np.where(layout.nonempty[:, None], 0.5 * (table + object_mean), 0.0)

    def encode(self, window: HistoryWindow) -> EncoderState:
        e_short, _, relation_matrix = self.short_encoder(
            window.scope_entities(self.entity.all()),
            self.relation.all(),
            window.snapshots,
            [],
            window.deltas,
        )
        long_term = window.scope_entities(Tensor(self.long_term_memory(window)))
        gate = self.fuse_gate(e_short).sigmoid()
        fused = gate * e_short + (1.0 - gate) * long_term
        return self._make_state(window, fused, relation_matrix)

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
