"""CyGNet (Zhu et al., 2021): sequential copy-generation networks.

Mechanism kept from the original: a *copy mode* that redistributes
probability mass onto entities recorded in the historical vocabulary of
the query pair, blended with a *generation mode* scoring every entity.
Simplifications: the per-timestamp vocabulary snapshots of the original
are collapsed into the cumulative vocabulary (our
:meth:`~repro.graphs.history.HistoryIndex.vocabulary`), and the time-stamp
one-hot is replaced by the shared periodic time encoding.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Embedding, Linear
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat
from repro.baselines.base import HistoryMask, ModelRequirements, TKGBaseline, window_vocabulary
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class CyGNet(TKGBaseline):
    """Copy-generation scorer over the historical vocabulary."""

    requirements = ModelRequirements(vocabulary=True)

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        copy_weight: float = 0.8,
    ):
        super().__init__(num_entities, num_relations)
        if not 0.0 <= copy_weight <= 1.0:
            raise ValueError("copy_weight must be in [0, 1]")
        self.dim = dim
        self.copy_weight = copy_weight
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.copy_proj = Linear(2 * dim, num_entities)
        self.generate_proj = Linear(2 * dim, num_entities)

    def encode(self, window: HistoryWindow) -> EncoderState:
        """State: the embedding tables plus the window's vocabulary index."""
        return self._make_state(
            window, self.entity.all(), self.relation.all(),
            int_aux=window_vocabulary(self, window),
        )

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        query_vec = concat([s, r], axis=1)

        copy_logits = HistoryMask(state, queries, self.num_entities).keep_seen(
            self.copy_proj(query_vec)
        )
        generate_logits = self.generate_proj(query_vec)

        mixed = (
            F.softmax(copy_logits) * self.copy_weight
            + F.softmax(generate_logits) * (1.0 - self.copy_weight)
        )
        # return log-probabilities so downstream CE stays well-scaled
        return (mixed + 1e-12).log()
