"""The full HisRES model (paper §3, Figure 2).

Pipeline per prediction timestamp:

1. multi-granularity evolutionary encoder -> E^g_t, E^gg_t, R_t;
2. self-gating fuses granularities (Eq. 8) -> E_t;
3. global relevance encoder on G^H_t from E_t -> E^H_t;
4. self-gating fuses local/global (Eq. 13) -> E^phi_t;
5. ConvTransE decoders score entities and relations (Eq. 12);
6. joint cross-entropy loss with coefficient alpha (Eq. 15).

All Table 4 ablations are switch-driven through
:class:`repro.core.config.HisRESConfig`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import Embedding, cross_entropy
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.core.config import HisRESConfig
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import MultiGranularityEvolutionaryEncoder
from repro.core.execution import EncoderState, make_state
from repro.core.gating import SelfGating
from repro.core.relevance import GlobalRelevanceEncoder
from repro.core.window import HistoryWindow


class HisRES(Module):
    """Historically Relevant Event Structuring model.

    Args:
        num_entities: entity vocabulary size.
        num_relations: *base* relation count; the model internally uses
            the doubled space for inverse relations.
        config: hyper-parameters and ablation switches.
    """

    supports_query_scoping = True

    def __init__(self, num_entities: int, num_relations: int, config: Optional[HisRESConfig] = None):
        super().__init__()
        self.config = config or HisRESConfig()
        cfg = self.config
        self.num_entities = num_entities
        self.num_relations = num_relations
        d = cfg.embedding_dim

        self.entity_embedding = Embedding(num_entities, d)
        self.relation_embedding = Embedding(2 * num_relations, d)

        if cfg.use_evolution:
            self.evolution = MultiGranularityEvolutionaryEncoder(
                d,
                num_layers=cfg.num_layers,
                dropout=cfg.dropout,
                use_relation_updating=cfg.use_relation_updating,
                use_time_encoding=cfg.use_time_encoding,
                use_inter_snapshot=cfg.use_multi_granularity,
            )
            self.granularity_gate = SelfGating(d, enabled=cfg.use_self_gating_local)
        if cfg.use_global:
            self.global_encoder = GlobalRelevanceEncoder(
                d,
                num_layers=cfg.num_layers,
                aggregator=cfg.global_aggregator,
                dropout=cfg.dropout,
            )
            self.global_gate = SelfGating(d, enabled=cfg.use_self_gating_global)

        self.entity_decoder = ConvTransEDecoder(
            d, channels=cfg.decoder_channels, kernel_size=cfg.decoder_kernel, dropout=cfg.dropout
        )
        self.relation_decoder = ConvTransEDecoder(
            d, channels=cfg.decoder_channels, kernel_size=cfg.decoder_kernel, dropout=cfg.dropout
        )

    # ------------------------------------------------------------------
    def encode(self, window: HistoryWindow) -> EncoderState:
        """Run both encoders; state holds (E^phi_t, R_t).

        Exactly :meth:`encode_history` then :meth:`encode_query`, so a
        cached history state followed by the query step is the same op
        sequence as this live call.
        """
        return self.encode_query(window, self.encode_history(window))

    def encode_history(self, window: HistoryWindow) -> EncoderState:
        """Step one, query-independent: state holds (E_t after Eq. 8, R_t).

        Reads only the snapshots, merged graphs and deltas (covered by
        :meth:`~repro.core.window.HistoryWindow.history_fingerprint`).
        """
        cfg = self.config
        e_init = window.scope_entities(self.entity_embedding.all())
        r_init = self.relation_embedding.all()

        if cfg.use_evolution:
            e_intra, e_inter, r_out = self.evolution(
                e_init, r_init, window.snapshots, window.merged, window.deltas
            )
            if e_inter is not None:
                e_local = self.granularity_gate(e_intra, e_inter)  # Eq. 8
            else:
                e_local = e_intra
        else:
            e_local, r_out = e_init, r_init
        return make_state(self, window, e_local, r_out)

    def encode_query(self, window: HistoryWindow, history: EncoderState) -> EncoderState:
        """Step two: the global stage over G^H_t and its Eq. 13 gate."""
        e_local, r_out = history.entity_matrix, history.relation_matrix
        if self.config.use_global and window.global_graph is not None:
            e_global = self.global_encoder(e_local, r_out, window.global_graph)
            e_final = self.global_gate(e_global, e_local)  # Eq. 13
        else:
            e_final = e_local
        return make_state(self, window, e_final, r_out)

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        """Entity logits (n, |E|) from an encoded state (Eq. 12)."""
        queries = np.asarray(queries, dtype=np.int64)
        subj = state.entity_matrix.index_select(queries[:, 0])
        rel = state.relation_matrix.index_select(queries[:, 1])
        return self.entity_decoder(subj, rel, state.entity_matrix)

    def decode_entity_range(
        self, state: EncoderState, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Entity scores restricted to candidates ``[lo, hi)`` (serving shards).

        Same query embedding as :meth:`decode`, but the final candidate
        matmul walks the global decode tile grid so a shard worker's
        slice is bitwise-identical to the corresponding columns of the
        full-range decode (see ``repro.core.execution``).
        """
        queries = np.asarray(queries, dtype=np.int64)
        subj = state.entity_matrix.index_select(queries[:, 0])
        rel = state.relation_matrix.index_select(queries[:, 1])
        return self.entity_decoder.score_range(subj, rel, state.entity_matrix, lo, hi)

    def decode_relations(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        """Relation logits (n, 2|R|) from the same encoded state."""
        queries = np.asarray(queries, dtype=np.int64)
        subj = state.entity_matrix.index_select(queries[:, 0])
        obj = state.entity_matrix.index_select(queries[:, 2])
        return self.relation_decoder(subj, obj, state.relation_matrix)

    # ------------------------------------------------------------------
    def forward(
        self, window: HistoryWindow, queries: np.ndarray
    ) -> Tuple[Tensor, Tensor]:
        """Score entity and relation predictions for ``queries``.

        Args:
            window: assembled history (see
                :class:`repro.core.window.WindowBuilder`).
            queries: (n, >=3) array of (s, r, o[, t]) — inverse queries
                included by the caller.

        Returns:
            (entity_logits (n, |E|), relation_logits (n, 2|R|)).
        """
        queries = np.asarray(queries, dtype=np.int64)
        state = self.encode(window)
        return self.decode(state, queries), self.decode_relations(state, queries)

    # ------------------------------------------------------------------
    # query-scoped (sampled) execution hooks
    # ------------------------------------------------------------------
    def scoped_reference_matrix(self) -> Tensor:
        """Reference rows for out-of-closure candidates in scoped decodes."""
        return self.entity_embedding.all()

    def aux_entity_slots(self, state: EncoderState) -> Tuple[int, ...]:
        return ()

    def decode_loss(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        """Joint objective (Eq. 15) given a (grad-live) encoder state."""
        queries = np.asarray(queries, dtype=np.int64)
        entity_loss = cross_entropy(self.decode(state, queries), queries[:, 2])
        relation_loss = cross_entropy(self.decode_relations(state, queries), queries[:, 1])
        alpha = self.config.alpha
        return entity_loss * alpha + relation_loss * (1.0 - alpha)

    def loss(self, window: HistoryWindow, queries: np.ndarray) -> Tensor:
        """Joint learning objective (Eq. 15)."""
        queries = np.asarray(queries, dtype=np.int64)
        return self.decode_loss(self.encode(window), queries)

    def predict_entities(self, window: HistoryWindow, queries: np.ndarray) -> np.ndarray:
        """Entity scores as a plain array (evaluation helper)."""
        with self.inference_mode():
            return self.decode(self.encode(window), queries).data
