"""Historical vocabularies: sparse (s, r) -> seen-objects statistics.

This is the "category (a)" machinery from the paper's related work —
CyGNet's copy-mode vocabulary, TiRGN's global history mask, and CENET's
historical/non-historical split all consume this structure, through the
immutable CSR index :meth:`HistoryVocabulary.index` builds over one
window's query pairs.
"""

from __future__ import annotations

import itertools
from typing import Dict, Set, Tuple

import numpy as np

#: ``(keys, indptr, objects)``: sorted int64 pair keys (see
#: :func:`pair_keys`), CSR row offsets, and the sorted seen objects of
#: each pair, concatenated.
VocabularyIndex = Tuple[np.ndarray, np.ndarray, np.ndarray]


def pair_keys(subjects: np.ndarray, relations: np.ndarray) -> np.ndarray:
    """One sortable int64 key per ``(s, r)`` pair."""
    return (np.asarray(subjects, dtype=np.int64) << 32) | np.asarray(relations, dtype=np.int64)


def vocabulary_mask(
    index: VocabularyIndex, subjects: np.ndarray, relations: np.ndarray, num_entities: int
) -> np.ndarray:
    """Binary matrix (batch, |E|): 1 where the object was ever seen with
    the query pair.

    Raises ``KeyError`` for a pair the index was not built over: a pair
    outside the index is unknown, not unseen.
    """
    keys, indptr, objects = index
    wanted = pair_keys(subjects, relations)
    rows = np.searchsorted(keys, wanted)
    found = np.append(keys, -1)[rows] == wanted
    if not found.all():
        bad = int(wanted[~found][0])
        raise KeyError(
            f"query pair ({bad >> 32}, {bad & 0xFFFFFFFF}) is not in the vocabulary "
            "index; decode only the queries the window was built for"
        )
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    # flat positions of every row's objects: start + rank within the row
    take = np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    mask = np.zeros((len(wanted), num_entities))
    mask[np.repeat(np.arange(len(wanted)), counts), objects[take]] = 1.0
    return mask


class HistoryVocabulary:
    """Incremental per-(s, r) record of historically observed objects."""

    def __init__(self, num_entities: int, num_relations: int):
        self.num_entities = num_entities
        self.num_relations = num_relations
        self._objects: Dict[int, Set[int]] = {}

    def reset(self) -> None:
        self._objects.clear()

    def add_snapshot(self, quads: np.ndarray) -> None:
        """Record the facts of one snapshot (timestamp order assumed)."""
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        for key, o in zip(pair_keys(quads[:, 0], quads[:, 1]).tolist(), quads[:, 2].tolist()):
            self._objects.setdefault(key, set()).add(o)

    def index(self, subjects: np.ndarray, relations: np.ndarray) -> VocabularyIndex:
        """CSR index over the distinct query pairs, in pair-key order.

        Pairs with no history get an empty row, so every queried pair
        is present.  The arrays are read-only: windows fingerprint them
        once and states share them.
        """
        keys = np.unique(pair_keys(subjects, relations))
        rows = [sorted(self._objects.get(key, ())) for key in keys.tolist()]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(row) for row in rows], dtype=np.int64)
        objects = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        for array in (keys, indptr, objects):
            array.flags.writeable = False
        return keys, indptr, objects

    @property
    def num_pairs(self) -> int:
        return len(self._objects)
