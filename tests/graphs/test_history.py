"""Historical vocabulary (CyGNet/TiRGN/CENET substrate)."""

import numpy as np
import pytest

from repro.graphs import HistoryIndex
from repro.graphs.history import vocabulary_mask

NUM_ENTITIES = 6


def _vocab():
    return HistoryIndex()


def _seen_mask(v, subjects, relations):
    """Dense seen-objects mask of the pairs, through their CSR index."""
    return vocabulary_mask(v.vocabulary(subjects, relations), subjects, relations, NUM_ENTITIES)


class TestSeenMask:
    def test_mask_marks_seen_objects(self):
        v = _vocab()
        v.add_snapshot(np.array([[0, 1, 2, 0], [0, 1, 3, 0]]))
        mask = _seen_mask(v, np.array([0]), np.array([1]))
        np.testing.assert_array_equal(mask[0], [0, 0, 1, 1, 0, 0])

    def test_mask_zero_for_unseen_pair(self):
        v = _vocab()
        v.add_snapshot(np.array([[0, 1, 2, 0]]))
        mask = _seen_mask(v, np.array([5]), np.array([3]))
        assert mask.sum() == 0

    def test_mask_batched(self):
        v = _vocab()
        v.add_snapshot(np.array([[0, 1, 2, 0], [1, 2, 4, 0]]))
        mask = _seen_mask(v, np.array([0, 1]), np.array([1, 2]))
        assert mask[0, 2] == 1 and mask[1, 4] == 1
        assert mask.sum() == 2

    def test_accumulates_over_snapshots(self):
        v = _vocab()
        v.add_snapshot(np.array([[0, 1, 2, 0]]))
        v.add_snapshot(np.array([[0, 1, 4, 1]]))
        mask = _seen_mask(v, np.array([0]), np.array([1]))
        assert mask[0, 2] == 1 and mask[0, 4] == 1


class TestIndex:
    def test_index_rows_sorted_and_complete(self):
        v = _vocab()
        v.add_snapshot(np.array([[0, 1, 3, 0], [0, 1, 2, 0], [0, 1, 2, 1], [1, 2, 4, 0]]))
        keys, indptr, objects = v.vocabulary(np.array([1, 0, 0, 5]), np.array([2, 1, 1, 3]))
        # distinct pairs in key order; the unseen pair keeps an empty row
        assert len(keys) == 3 and list(keys) == sorted(keys)
        assert indptr.tolist() == [0, 2, 3, 3]
        assert objects.tolist() == [2, 3, 4]


class TestCounts:
    def test_reset_clears(self):
        v = _vocab()
        v.add_snapshot(np.array([[0, 1, 2, 0]]))
        v.reset()
        assert v.num_pairs == 0
        assert _seen_mask(v, np.array([0]), np.array([1])).sum() == 0

    def test_num_pairs(self):
        v = _vocab()
        v.add_snapshot(np.array([[0, 1, 2, 0], [3, 2, 1, 0]]))
        assert v.num_pairs == 2
