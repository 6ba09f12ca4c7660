"""HGLS (Zhang et al., WWW 2023): long- and short-term representations.

Mechanism kept: **long-term dependencies through same-entity links** —
the original connects every occurrence of an entity across timestamps
so a GNN can mix information over the whole history.  We reproduce the
effect with an exponential-moving-average "long-term memory" per entity
updated as history is walked, fused with the short-term (recent-window)
evolution by a learned gate.  Simplifications: the explicit temporal
supergraph is replaced by its fixed-point — the EMA — which is what the
same-entity chain converges to under mean aggregation.

The reproduction detail HisRES's related-work section calls out —
"incorporates redundant information from distant timestamps" — shows up
here as the EMA's insensitivity to recency, which is exactly why HGLS
trails query-conditioned global structuring (LogCL, HisRES).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Embedding, Linear, cross_entropy
from repro.nn.tensor import Tensor
from repro.baselines.base import ModelRequirements, TKGBaseline
from repro.core.decoder import ConvTransEDecoder
from repro.core.evolution import MultiGranularityEvolutionaryEncoder
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class HGLS(TKGBaseline):
    """Short-term recurrent encoder + long-term same-entity memory.

    Note: :meth:`encode` is split (state = fused matrices) but also
    *observes* the newest snapshot into the long-term memory — a cache
    hit skips the observation, which is correct: the memory only wants
    each snapshot absorbed once per chronological walk.
    """

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
        memory_decay: float = 0.9,
        channels: int = 8,
        kernel_size: int = 3,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.alpha = alpha
        self.memory_decay = memory_decay
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
        # long-term memory: EMA of co-occurrence-mixed embeddings,
        # maintained as *data* (inference-time input, like a vocabulary)
        self._memory = np.zeros((num_entities, dim))
        self._memory_seen = np.zeros(num_entities, dtype=bool)

    # ------------------------------------------------------------------
    def observe(self, quads: np.ndarray) -> None:
        """Update the long-term memory with one snapshot's facts.

        Call in chronological order (the Trainer's walk does this via
        ``predict_entities``/``loss`` which observe lazily from the
        window's most recent snapshot)."""
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        if len(quads) == 0:
            return
        emb = self.entity.weight.data
        for s, _, o, _ in quads:
            blended = 0.5 * (emb[s] + emb[o])
            for node in (int(s), int(o)):
                if self._memory_seen[node]:
                    self._memory[node] = (
                        self.memory_decay * self._memory[node]
                        + (1 - self.memory_decay) * blended
                    )
                else:
                    self._memory[node] = blended
                    self._memory_seen[node] = True

    def encode(self, window: HistoryWindow) -> EncoderState:
        # lazily absorb the newest snapshot into the long-term memory —
        # but never from a scoped window: its snapshots carry *local*
        # entity ids and sampled edge subsets, either of which would
        # corrupt the global EMA.  The chronological walk that owns the
        # memory always also encodes the full window.
        if window.snapshots and not window.is_scoped:
            newest = window.snapshots[-1]
            quads = np.stack(
                [newest.src, newest.rel, newest.dst, np.zeros_like(newest.src)], axis=1
            )
            self.observe(quads)
        e_short, _, relation_matrix = self.short_encoder(
            window.scope_entities(self.entity.all()),
            self.relation.all(),
            window.snapshots,
            [],
            window.deltas,
        )
        long_term = Tensor(
            self._memory if not window.is_scoped else self._memory[window.local_nodes]
        )
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
