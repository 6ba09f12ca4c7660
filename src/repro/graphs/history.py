"""One history index: every historical ``(s, r, o)``, read two ways.

- The globally relevant graph G^H_t (§3.4.1): every historical fact
  ``(s', r', o') in G_{0:t-1}`` whose pair ``(s', r')`` is in the query
  set ``Q_t``.  Unlike HGLS (every occurrence of every entity) or LogCL
  (all query-relevant facts, unweighted) it keeps only directly
  relevant facts; ConvGAT then weighs them.
- The history vocabulary of the related work's "category (a)" (CyGNet's
  copy mode, TiRGN's global history mask, CENET's historical split),
  read through the immutable CSR index over one window's query pairs.
- Every fact as ``(subject, object)`` rows (:meth:`HistoryIndex.facts`),
  HGLS's same-entity history.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

#: ``(keys, indptr, objects)``: sorted int64 pair keys (see
#: :func:`pair_keys`), CSR row offsets, and the sorted seen objects of
#: each pair, concatenated.
VocabularyIndex = Tuple[np.ndarray, np.ndarray, np.ndarray]


class HistoryFacts(NamedTuple):
    """A :meth:`HistoryIndex.facts` read and a process-stable key of the
    history behind it (the window builder's content-chained version)."""

    version: int
    subjects: np.ndarray
    objects: np.ndarray


def pair_keys(subjects: np.ndarray, relations: np.ndarray) -> np.ndarray:
    """One sortable int64 key per ``(s, r)`` pair."""
    return (np.asarray(subjects, dtype=np.int64) << 32) | np.asarray(relations, dtype=np.int64)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + n) for a, n in zip(starts, counts)])``."""
    return np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


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
    mask = np.zeros((len(wanted), num_entities))
    mask[np.repeat(np.arange(len(wanted)), counts), objects[_concat_ranges(starts, counts)]] = 1.0
    return mask


class HistoryIndex:
    """Every absorbed fact, one row per distinct ``(s, r, o)``.

    Parallel arrays hold each row's :func:`pair_keys` key, object and
    ``last_t`` (the time it was last seen), sorted by ``(key, first
    insertion)``: a new fact goes to the end of its pair's range.  That
    order is G^H's edge order, so it fixes the summation order of every
    segment reduction over G^H.

    Args:
        max_history: optional recency cutoff (in timestamps) on G^H.
            The paper lists pruning the global relevance structure as
            future work (§5); ``None`` reproduces the paper (keep all),
            while a finite value keeps only facts last seen at or after
            ``now - max_history``.  The vocabulary ignores it.
    """

    def __init__(self, max_history: Optional[int] = None):
        self.max_history = max_history
        self.reset()

    def reset(self) -> None:
        """Forget all indexed history (start of a new epoch/run)."""
        self._keys, self._objects, self._last_t = (np.zeros(0, dtype=np.int64) for _ in range(3))
        self._last_time: Optional[int] = None
        self._subjects: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def add_snapshot(self, quads: np.ndarray) -> None:
        """Index one snapshot's facts (call in timestamp order), with no
        Python loop per fact.  A known fact keeps its row; its ``last_t``
        becomes the time of its last row here."""
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        if len(quads) == 0:
            return
        t = int(quads[0, 3])
        if self._last_time is not None and t < self._last_time:
            raise ValueError("snapshots must be added in chronological order")
        self._last_time = t

        # the snapshot's distinct facts in (key, o) order, each with the
        # position of its first row and the time of its last (lexsort
        # is stable, so one fact's rows keep their feed order)
        keys = pair_keys(quads[:, 0], quads[:, 1])
        order = np.lexsort((quads[:, 2], keys))
        k, o = keys[order], quads[order, 2]
        starts = np.flatnonzero(np.r_[True, (k[1:] != k[:-1]) | (o[1:] != o[:-1])])
        first = order[starts]
        last_t = quads[order[np.r_[starts[1:], len(order)] - 1], 3]
        k, o = k[starts], o[starts]

        # facts already indexed: look them up among the rows of the
        # snapshot's pairs, both sides coded as (pair rank << 32) | o
        new_pair = np.r_[True, k[1:] != k[:-1]]
        pairs = k[new_pair]
        codes = ((np.cumsum(new_pair) - 1) << 32) | o
        lo = np.searchsorted(self._keys, pairs, "left")
        counts = np.searchsorted(self._keys, pairs, "right") - lo
        rows = _concat_ranges(lo, counts)
        row_codes = (np.repeat(np.arange(len(pairs)), counts) << 32) | self._objects[rows]
        at = np.minimum(np.searchsorted(codes, row_codes), len(codes) - 1)
        hit = codes[at] == row_codes
        self._last_t[rows[hit]] = last_t[at[hit]]

        # new facts go to the end of their pair's range, in first-row order
        fresh = np.ones(len(k), dtype=bool)
        fresh[at[hit]] = False
        k, o, first, last_t = k[fresh], o[fresh], first[fresh], last_t[fresh]
        place = np.lexsort((first, k))
        at = np.searchsorted(self._keys, k[place], "right")
        self._keys = np.insert(self._keys, at, k[place])
        self._objects = np.insert(self._objects, at, o[place])
        self._last_t = np.insert(self._last_t, at, last_t[place])
        # replaced, never written in place: readers may hold them
        self._keys.flags.writeable = self._objects.flags.writeable = False
        self._subjects = None

    # ------------------------------------------------------------------
    def triples(
        self, query_pairs: Iterable[Tuple[int, int]], now: Optional[int] = None
    ) -> np.ndarray:
        """G^H_t's (n, 3) ``(s, r, o)`` triples for the query pairs Q_t.

        Pairs come in the iteration order of ``query_pairs``, each once,
        and a pair's objects in first-insertion order.  ``now``, the
        prediction time, is needed only with a ``max_history`` cutoff.
        """
        if self.max_history is not None and now is None:
            raise ValueError("now is required when max_history is set")
        pairs = np.asarray(list(query_pairs), dtype=np.int64).reshape(-1, 2)
        keys = pair_keys(pairs[:, 0], pairs[:, 1])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        lo = np.searchsorted(self._keys, keys, "left")
        rows = _concat_ranges(lo, np.searchsorted(self._keys, keys, "right") - lo)
        if self.max_history is not None:
            rows = rows[self._last_t[rows] >= now - self.max_history]
        k = self._keys[rows]
        return np.stack([k >> 32, k & 0xFFFFFFFF, self._objects[rows]], axis=1)

    def vocabulary(self, subjects: np.ndarray, relations: np.ndarray) -> VocabularyIndex:
        """CSR index over the distinct query pairs, in pair-key order.

        Rows list the seen objects sorted; a pair with no history gets
        an empty row.  The arrays are read-only: windows fingerprint
        them once and states share them.
        """
        keys = np.unique(pair_keys(subjects, relations))
        lo = np.searchsorted(self._keys, keys, "left")
        counts = np.searchsorted(self._keys, keys, "right") - lo
        objects = self._objects[_concat_ranges(lo, counts)]
        objects = objects[np.lexsort((objects, np.repeat(np.arange(len(keys)), counts)))]
        indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        for array in (keys, indptr, objects):
            array.flags.writeable = False
        return keys, indptr, objects

    def facts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every row as read-only ``(subject, object)`` arrays, subjects
        ascending (rows sort by pair key): a ready sorted segment layout.
        :meth:`add_snapshot` replaces the arrays, never writes them."""
        if self._subjects is None:
            self._subjects = self._keys >> 32
            self._subjects.flags.writeable = False
        return self._subjects, self._objects

    @property
    def num_pairs(self) -> int:
        """Distinct ``(s, r)`` pairs with at least one indexed fact."""
        return int(np.count_nonzero(np.diff(self._keys))) + 1 if len(self._keys) else 0

    @property
    def num_facts(self) -> int:
        """Distinct ``(s, r, o)`` facts indexed."""
        return len(self._keys)
