"""Convolutional static baselines: ConvE and ConvTransE.

ConvE (Dettmers et al., 2018) reshapes the subject/relation embeddings
into a 2-D "image" and applies a 2-D convolution; ConvTransE (Shang et
al., 2019) keeps the embeddings aligned and uses a 1-D convolution —
the same decoder HisRES adopts, here used standalone without any
temporal encoder.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Conv2d, Dropout, Embedding, Linear
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat
from repro.baselines.base import TKGBaseline
from repro.core.decoder import ConvTransEDecoder
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class ConvE(TKGBaseline):
    """2-D convolution over reshaped (s, r) embedding images."""

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        channels: int = 8,
        kernel_size: int = 3,
        reshape_height: int = 4,
        dropout: float = 0.2,
    ):
        super().__init__(num_entities, num_relations)
        if dim % reshape_height != 0:
            raise ValueError("dim must be divisible by reshape_height")
        self.dim = dim
        self.height = reshape_height
        self.width = dim // reshape_height
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.conv = Conv2d(1, channels, kernel_size, padding=kernel_size // 2)
        conv_out = channels * (2 * self.height) * self.width
        self.project = Linear(conv_out, dim)
        self.dropout = Dropout(dropout)

    def encode(self, window: HistoryWindow) -> EncoderState:
        return self._make_state(window, self.entity.all(), self.relation.all())

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        n = len(queries)
        s = state.entity_matrix.index_select(queries[:, 0]).reshape(n, 1, self.height, self.width)
        r = state.relation_matrix.index_select(queries[:, 1]).reshape(n, 1, self.height, self.width)
        image = concat([s, r], axis=2)  # (n, 1, 2h, w)
        x = F.relu(self.conv(image))
        x = self.dropout(x.reshape(n, -1))
        x = F.relu(self.project(x))
        return x @ state.entity_matrix.T


class ConvTransEModel(TKGBaseline):
    """Standalone ConvTransE: the HisRES decoder on static embeddings."""

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        channels: int = 8,
        kernel_size: int = 3,
        dropout: float = 0.2,
    ):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)
        self.decoder = ConvTransEDecoder(dim, channels=channels, kernel_size=kernel_size, dropout=dropout)

    def encode(self, window: HistoryWindow) -> EncoderState:
        return self._make_state(window, self.entity.all(), self.relation.all())

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        return self.decoder(s, r, state.entity_matrix)
