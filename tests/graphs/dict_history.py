"""Dict-of-dicts history index: the test oracle for ``HistoryIndex``.

The two per-fact Python indexes the array-backed
:class:`repro.graphs.history.HistoryIndex` replaced, kept here to
check it against:

- :class:`DictGlobalIndex` maps ``(s, r) -> {o: last_t}`` and yields
  G^H_t's triples in query-pair order, then each pair's objects in
  first-insertion order (dict order), then the ``max_history`` cutoff;
- :class:`DictVocabulary` maps ``key -> {o}`` and builds the CSR
  vocabulary index with sorted rows.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.history import VocabularyIndex, pair_keys


class DictGlobalIndex:
    def __init__(self, max_history: Optional[int] = None):
        self.max_history = max_history
        self._index: Dict[Tuple[int, int], Dict[int, int]] = defaultdict(dict)
        self._last_time: Optional[int] = None

    def add_snapshot(self, quads: np.ndarray) -> None:
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        if len(quads) == 0:
            return
        t = int(quads[0, 3])
        if self._last_time is not None and t < self._last_time:
            raise ValueError("snapshots must be added in chronological order")
        self._last_time = t
        for s, r, o, ts in quads:
            self._index[(int(s), int(r))][int(o)] = int(ts)

    def triples(
        self, query_pairs: Iterable[Tuple[int, int]], now: Optional[int] = None
    ) -> np.ndarray:
        cutoff = None if self.max_history is None else now - self.max_history
        triples: List[Tuple[int, int, int]] = []
        seen_pairs: Set[Tuple[int, int]] = set()
        for pair in query_pairs:
            pair = (int(pair[0]), int(pair[1]))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            for o, last_t in self._index.get(pair, {}).items():
                if cutoff is None or last_t >= cutoff:
                    triples.append((pair[0], pair[1], o))
        if not triples:
            return np.zeros((0, 3), dtype=np.int64)
        return np.asarray(triples, dtype=np.int64)

    @property
    def num_pairs(self) -> int:
        return len(self._index)

    @property
    def num_facts(self) -> int:
        return sum(len(bucket) for bucket in self._index.values())


class DictVocabulary:
    def __init__(self):
        self._objects: Dict[int, Set[int]] = {}

    def add_snapshot(self, quads: np.ndarray) -> None:
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        for key, o in zip(pair_keys(quads[:, 0], quads[:, 1]).tolist(), quads[:, 2].tolist()):
            self._objects.setdefault(key, set()).add(o)

    def vocabulary(self, subjects: np.ndarray, relations: np.ndarray) -> VocabularyIndex:
        keys = np.unique(pair_keys(subjects, relations))
        rows = [sorted(self._objects.get(key, ())) for key in keys.tolist()]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(row) for row in rows], dtype=np.int64)
        objects = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        return keys, indptr, objects
