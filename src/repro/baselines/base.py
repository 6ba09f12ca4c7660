"""Shared interface for every model the harness can train/evaluate.

Every baseline speaks the one encode/decode protocol of the execution
plane (:mod:`repro.core.execution`): :meth:`TKGBaseline.encode` turns
a window into an :class:`EncoderState` and :meth:`TKGBaseline.decode`
scores query blocks against it.  ``score_entities``, ``loss``, and
``predict_entities`` all route through that pair, and every state can
be cached, grouped by the timeline batcher, and shared through the
serving state tier.

Models whose decode reads per-query history — the vocabulary baselines
(CyGNet, CENET, TiRGN) — carry the window's vocabulary index in
``state.int_aux`` and build their dense masks at decode time through
:class:`HistoryMask`, the one owner of the mask penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn import cross_entropy
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.core.execution import EncoderState, make_state
from repro.core.window import HistoryWindow
from repro.graphs.history import VocabularyIndex, vocabulary_mask

#: Logit offset that pushes masked-out candidates out of a softmax.
_MASK_PENALTY = 100.0


def window_vocabulary(model, window: HistoryWindow) -> VocabularyIndex:
    """The window's vocabulary index, or a clear error when untracked."""
    if window.vocabulary is None:
        raise RuntimeError(
            f"{type(model).__name__} needs the history vocabulary in the window "
            "(build it with track_vocabulary=True)"
        )
    return window.vocabulary


class HistoryMask:
    """Dense (n, |E|) 0/1 mask of the objects each query pair has seen.

    Built at decode time from the vocabulary index a state carries in
    ``int_aux[:3]``; the same index always yields the same mask values,
    so decoding from a cached or tier-loaded state is bitwise-equal to
    decoding right after ``encode``.
    """

    def __init__(self, state: EncoderState, queries: np.ndarray, num_entities: int):
        self.values = vocabulary_mask(state.int_aux[:3], queries[:, 0], queries[:, 1], num_entities)

    def keep_seen(self, logits: Tensor) -> Tensor:
        """Penalise every candidate the pair has never been seen with."""
        return logits + Tensor((self.values - 1.0) * _MASK_PENALTY)

    def keep_unseen(self, logits: Tensor) -> Tensor:
        """Penalise every candidate the pair has been seen with."""
        return logits + Tensor(-self.values * _MASK_PENALTY)


@dataclass(frozen=True)
class ModelRequirements:
    """What a model needs the window builder to assemble."""

    recent_snapshots: bool = False
    global_graph: bool = False
    vocabulary: bool = False


class TKGBaseline(Module):
    """Base class: entity scoring + optional relation scoring.

    Subclasses implement :meth:`encode` and :meth:`decode`; the default
    :meth:`decode_loss` is cross-entropy on the target objects (inverse
    queries included by the harness).
    """

    requirements = ModelRequirements()
    #: Graph-encoder subclasses whose ``encode`` reads window graphs
    #: through :meth:`HistoryWindow.scope_entities` flip this to True;
    #: the :class:`~repro.core.execution.ScopedExecutionPlan` passes
    #: everything else (vocabulary and walk models, static embedders)
    #: through to the full-graph plan.
    supports_query_scoping = False

    def __init__(self, num_entities: int, num_relations: int):
        super().__init__()
        self.num_entities = num_entities
        self.num_relations = num_relations  # base count; doubled ids used

    # ------------------------------------------------------------------
    # encode/decode protocol
    # ------------------------------------------------------------------
    def encode(self, window: HistoryWindow) -> EncoderState:
        """Window -> frozen encoder state."""
        raise NotImplementedError

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        """Entity logits (n, |E|) for ``queries`` from an encoded state."""
        raise NotImplementedError

    def decode_relations(self, state: EncoderState, queries: np.ndarray) -> Optional[Tensor]:
        """Relation logits (n, 2|R|), or None for entity-only models."""
        return None

    def decode_entity_range(
        self, state: EncoderState, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Entity scores restricted to candidates ``[lo, hi)``.

        Default: full decode, then slice — range-consistent for every
        model because each shard's slice is a sub-array of the one full
        score matrix.  Models whose decode ends in a candidate matmul
        override this with a genuinely restricted tile-grid computation
        (HisRES, RE-GCN) so sharded serving workers do
        ~``1/num_shards`` of the decode work.
        """
        return np.asarray(self.decode(state, queries).data)[:, lo:hi]

    def _make_state(
        self,
        window: HistoryWindow,
        entity_matrix: Optional[Tensor],
        relation_matrix: Optional[Tensor],
        aux: Tuple[Tensor, ...] = (),
        int_aux: Tuple[np.ndarray, ...] = (),
    ) -> EncoderState:
        return make_state(self, window, entity_matrix, relation_matrix, aux=aux, int_aux=int_aux)

    # ------------------------------------------------------------------
    # query-scoped (sampled) execution hooks
    # ------------------------------------------------------------------
    def scoped_reference_matrix(self) -> Tensor:
        """Full-entity reference rows for scoped decodes.

        When the sampler restricts an encode to the query batch's fan-in
        closure, out-of-closure candidates still need *some* row in the
        decode matmul; the scoped plan scatters the encoded closure over
        this matrix (default: the initial entity embedding table — rows
        the evolution would have started from anyway).
        """
        return self.entity.all()

    def aux_entity_slots(self, state: EncoderState) -> Tuple[int, ...]:
        """Indices into ``state.aux`` holding per-entity matrices.

        The scoped plan scatters these slots to full entity space along
        with ``entity_matrix``; everything else in ``aux`` (relation
        tables, mixing weights) passes through untouched.
        """
        return ()

    # ------------------------------------------------------------------
    def score_entities(self, window: HistoryWindow, queries: np.ndarray) -> Tensor:
        return self.decode(self.encode(window), queries)

    def decode_loss(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        """Training objective given an (grad-live) encoder state.

        :meth:`loss` routes through here so the scoped plan can reuse the
        exact same objective on a scattered state during sampled
        training.  Default: cross-entropy on the target objects; joint
        models override with their combined objective.
        """
        queries = np.asarray(queries, dtype=np.int64)
        return cross_entropy(self.decode(state, queries), queries[:, 2])

    def loss(self, window: HistoryWindow, queries: np.ndarray) -> Tensor:
        return self.decode_loss(self.encode(window), np.asarray(queries, dtype=np.int64))

    def predict_entities(self, window: HistoryWindow, queries: np.ndarray) -> np.ndarray:
        with self.inference_mode():
            return self.decode(self.encode(window), queries).data

    def forward(self, window: HistoryWindow, queries: np.ndarray) -> Tensor:
        return self.score_entities(window, queries)
