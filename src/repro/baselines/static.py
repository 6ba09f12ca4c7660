"""Static KG embedding baselines: DistMult, ComplEx, RotatE.

These ignore timestamps entirely (first block of Table 3): every model
scores ``(s, r, ?)`` against all entities from embeddings alone, so
whatever temporal regularity exists is invisible to them — which is the
point of including them.

All three are trivially split under the execution plane: "encoding" is
just materialising the embedding tables, so the same window always
yields the same state and the encoder-state cache hits on everything.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import Embedding, init
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.baselines.base import TKGBaseline
from repro.core.execution import EncoderState
from repro.core.window import HistoryWindow


class DistMult(TKGBaseline):
    """Bilinear diagonal model: score = <s, r, o> (Yang et al., 2015)."""

    def __init__(self, num_entities: int, num_relations: int, dim: int = 32):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.entity = Embedding(num_entities, dim)
        self.relation = Embedding(2 * num_relations, dim)

    def encode(self, window: HistoryWindow) -> EncoderState:
        return self._make_state(window, self.entity.all(), self.relation.all())

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        s = state.entity_matrix.index_select(queries[:, 0])
        r = state.relation_matrix.index_select(queries[:, 1])
        return (s * r) @ state.entity_matrix.T


class ComplEx(TKGBaseline):
    """Complex bilinear model: score = Re(<s, r, conj(o)>)
    (Trouillon et al., 2016).  Stored as separate real/imag tables."""

    def __init__(self, num_entities: int, num_relations: int, dim: int = 32):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.entity_re = Embedding(num_entities, dim)
        self.entity_im = Embedding(num_entities, dim)
        self.relation_re = Embedding(2 * num_relations, dim)
        self.relation_im = Embedding(2 * num_relations, dim)

    def encode(self, window: HistoryWindow) -> EncoderState:
        aux = (
            self.entity_re.all(),
            self.entity_im.all(),
            self.relation_re.all(),
            self.relation_im.all(),
        )
        return self._make_state(window, None, None, aux=aux)

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        e_re, e_im, r_re_all, r_im_all = state.aux
        s_re = e_re.index_select(queries[:, 0])
        s_im = e_im.index_select(queries[:, 0])
        r_re = r_re_all.index_select(queries[:, 1])
        r_im = r_im_all.index_select(queries[:, 1])
        # Re(<s, r, conj(o)>) expanded into four real bilinear terms
        real_part = s_re * r_re - s_im * r_im
        imag_part = s_re * r_im + s_im * r_re
        return real_part @ e_re.T + imag_part @ e_im.T


class RotatE(TKGBaseline):
    """Rotation model: o ~ s * e^{i theta_r}; score = -||s o r - o||_1
    (Sun et al., 2019)."""

    def __init__(self, num_entities: int, num_relations: int, dim: int = 32, margin: float = 6.0):
        super().__init__(num_entities, num_relations)
        self.dim = dim
        self.margin = margin
        self.entity_re = Embedding(num_entities, dim)
        self.entity_im = Embedding(num_entities, dim)
        self.phase = Parameter(init.uniform((2 * num_relations, dim), -np.pi, np.pi))

    def encode(self, window: HistoryWindow) -> EncoderState:
        return self._make_state(
            window, None, None, aux=(self.entity_re.all(), self.entity_im.all(), self.phase)
        )

    def decode(self, state: EncoderState, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        all_re, all_im, phase_table = state.aux
        s_re = all_re.index_select(queries[:, 0])
        s_im = all_im.index_select(queries[:, 0])
        phase = phase_table.index_select(queries[:, 1])
        cos_p, sin_p = phase.cos(), phase.sin()
        rot_re = s_re * cos_p - s_im * sin_p  # (n, d)
        rot_im = s_re * sin_p + s_im * cos_p
        n = len(queries)
        # -L1 distance in the complex plane, per candidate
        diff_re = rot_re.reshape(n, 1, self.dim) - all_re.reshape(1, -1, self.dim)
        diff_im = rot_im.reshape(n, 1, self.dim) - all_im.reshape(1, -1, self.dim)
        dist = diff_re.abs().sum(axis=2) + diff_im.abs().sum(axis=2)
        return self.margin - dist
