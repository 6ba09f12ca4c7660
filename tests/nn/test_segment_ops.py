"""Gradcheck property tests for the segment reductions.

Every op is validated in value against a test-local dense one-hot
reduction, and in gradient against finite differences, over layouts
that exercise the edge cases real graphs produce: empty segments, a
single edge, and non-contiguous destination ids.

The ``kernel`` axis runs each check on the ``reduceat`` kernel of
``repro.nn.segment`` (``fused``) and, swapped in with ``monkeypatch``,
on the two oracles the suite trusts: the ``np.add.at`` scatter of
``tests/core/test_compute_plane.py`` (``reference``) and the one-hot
reduction below (``dense``).  Checking the oracles with the same cases
keeps the compute-plane parity fence honest.
"""

import numpy as np
import pytest

from repro.nn import segment
from repro.nn.segment import (
    SegmentLayout,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
    segment_sum_data,
)
from repro.nn.tensor import Tensor
from tests.conftest import check_gradients
from tests.core.test_compute_plane import scatter_max_data, scatter_sum_data

# (segments, num_segments) cases: empty segments interleaved,
# single-edge graphs, and non-contiguous destination ids.
CASES = [
    pytest.param(np.array([0, 0, 1, 1, 1, 3]), 5, id="empty-segments"),
    pytest.param(np.array([2]), 4, id="single-edge"),
    pytest.param(np.array([7, 2, 7, 0, 2, 7, 11]), 13, id="non-contiguous"),
    pytest.param(np.array([], dtype=np.int64), 3, id="no-edges"),
    pytest.param(np.array([1, 1, 1, 1]), 2, id="one-hot-segment"),
]

OPS = [segment_sum, segment_mean, segment_max]


def _dense_parts(values, layout):
    """Membership matrix ``(segments, entries)`` and values as ``(entries, cols)``."""
    member = np.zeros((layout.num_segments, layout.num_entries), dtype=bool)
    member[layout.segments, np.arange(layout.num_entries)] = True
    cols = int(np.prod(values.shape[1:], dtype=np.int64))
    return member, values.reshape(layout.num_entries, cols)


def dense_sum_data(values, layout):
    """Oracle for ``segment._sum_data``: a one-hot matmul, O(segments * entries)."""
    member, flat = _dense_parts(values, layout)
    out = member.astype(values.dtype) @ flat
    return out.reshape((layout.num_segments,) + values.shape[1:])


def dense_max_data(values, layout):
    """Oracle for ``segment._max_data``: a masked max; empty segments give 0."""
    member, flat = _dense_parts(values, layout)
    out = np.where(member[:, :, None], flat[None], -np.inf).max(axis=1, initial=-np.inf)
    out[~layout.nonempty] = 0.0
    return out.reshape((layout.num_segments,) + values.shape[1:])


ORACLES = {
    "reference": (scatter_sum_data, scatter_max_data),
    "dense": (dense_sum_data, dense_max_data),
}


def use_kernel(monkeypatch, kernel):
    """Run the segment ops on ``kernel``: ``fused`` or one of ``ORACLES``."""
    if kernel in ORACLES:
        sum_data, max_data = ORACLES[kernel]
        monkeypatch.setattr(segment, "_sum_data", sum_data)
        monkeypatch.setattr(segment, "_max_data", max_data)


def dense_reference(op, values, segments, num_segments, monkeypatch):
    with monkeypatch.context() as patch:
        use_kernel(patch, "dense")
        return op(Tensor(values), segments, num_segments).data


class TestLayout:
    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SegmentLayout(np.array([0, 5]), 5)
        with pytest.raises(ValueError, match="out of range"):
            SegmentLayout(np.array([-1]), 5)

    def test_csr_invariants(self):
        layout = SegmentLayout(np.array([3, 0, 3, 1]), 6)
        assert layout.num_entries == 4
        np.testing.assert_array_equal(layout.counts, [1, 1, 0, 2, 0, 0])
        np.testing.assert_array_equal(layout.indptr, [0, 1, 2, 2, 4, 4, 4])
        np.testing.assert_array_equal(layout.nonempty, [1, 1, 0, 1, 0, 0])
        np.testing.assert_array_equal(layout.starts, [0, 1, 2])
        # stable sort keeps the two segment-3 entries in input order
        np.testing.assert_array_equal(layout.segments[layout.order], [0, 1, 3, 3])

    def test_num_segments_required_without_layout(self):
        with pytest.raises(ValueError, match="num_segments"):
            segment_sum(Tensor(np.ones(2)), np.array([0, 1]))

    def test_row_count_must_match_layout(self):
        layout = SegmentLayout(np.array([0, 1, 1]), 3)
        values = np.ones((5, 2))
        with pytest.raises(ValueError, match="3 entries"):
            segment_sum(Tensor(values), layout)
        with pytest.raises(ValueError, match="3 entries"):
            segment_sum_data(values, layout)
        with pytest.raises(ValueError, match="3 entries"):
            segment_softmax(Tensor(np.ones(5)), layout)
        with pytest.raises(ValueError, match="3 entries"):
            segment_sum_data(np.ones(2), np.array([0, 1, 1]), 3)


class TestForwardAgainstDense:
    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kernel", ["fused", "reference"])
    def test_matches_dense(self, op, segments, num_segments, kernel, rng, monkeypatch):
        values = rng.normal(size=(len(segments), 3))
        expected = dense_reference(op, values, segments, num_segments, monkeypatch)
        use_kernel(monkeypatch, kernel)
        out = op(Tensor(values), segments, num_segments).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("kernel", ["fused", "reference"])
    def test_softmax_matches_dense(self, segments, num_segments, kernel, rng, monkeypatch):
        scores = rng.normal(size=len(segments)) * 3
        expected = dense_reference(segment_softmax, scores, segments, num_segments, monkeypatch)
        use_kernel(monkeypatch, kernel)
        out = segment_softmax(Tensor(scores), segments, num_segments).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_softmax_groups_sum_to_one(self, rng):
        segments = np.array([0, 2, 0, 2, 2, 4])
        out = segment_softmax(Tensor(rng.normal(size=6)), segments, 5)
        sums = segment_sum_data(out.data, segments, 5)
        np.testing.assert_allclose(sums[[0, 2, 4]], [1.0, 1.0, 1.0])
        assert sums[1] == sums[3] == 0.0

    def test_layout_and_raw_ids_agree(self, rng):
        segments = np.array([4, 1, 4, 0])
        layout = SegmentLayout(segments, 6)
        values = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(
            segment_sum(Tensor(values), layout).data,
            segment_sum(Tensor(values), segments, 6).data,
        )

    def test_segment_sum_data_raw_numpy(self, rng):
        segments = np.array([1, 1, 3])
        values = rng.normal(size=(3, 2))
        out = segment_sum_data(values, segments, 4)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out[1], values[:2].sum(axis=0))
        np.testing.assert_allclose(out[3], values[2])
        assert out[0].sum() == out[2].sum() == 0.0


class TestGradients:
    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize(
        "op", [segment_sum, segment_mean], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("kernel", ["fused", "reference", "dense"])
    def test_linear_ops(self, op, segments, num_segments, kernel, rng, monkeypatch):
        values = rng.normal(size=(len(segments), 2))
        use_kernel(monkeypatch, kernel)
        check_gradients(lambda v: op(v, segments, num_segments), values)

    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("kernel", ["fused", "reference"])
    def test_max(self, segments, num_segments, kernel, rng, monkeypatch):
        # well-separated values keep the argmax stable under the
        # finite-difference probes
        values = rng.permutation(len(segments) * 2).reshape(len(segments), 2) * 1.0
        use_kernel(monkeypatch, kernel)
        check_gradients(lambda v: segment_max(v, segments, num_segments), values)

    def test_max_tied_gradient_splits_equally(self):
        values = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        out = segment_max(values, np.array([0, 0, 0]), 1)
        out.backward()
        np.testing.assert_allclose(values.grad, [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("kernel", ["fused", "reference", "dense"])
    def test_softmax(self, segments, num_segments, kernel, rng, monkeypatch):
        scores = rng.normal(size=len(segments))
        use_kernel(monkeypatch, kernel)
        check_gradients(lambda s: segment_softmax(s, segments, num_segments), scores)

    def test_softmax_rejects_matrix_scores(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            segment_softmax(Tensor(rng.normal(size=(3, 2))), np.array([0, 1, 1]), 2)

    def test_gradient_flows_through_layout_path(self, rng):
        layout = SegmentLayout(np.array([0, 2, 2]), 4)
        values = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        segment_sum(values, layout).sum().backward()
        np.testing.assert_allclose(values.grad, np.ones((3, 2)))
