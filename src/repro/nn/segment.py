"""Fused autodiff segment reductions — the graph compute plane's kernel.

Message passing in every encoder of this repo reduces per-edge values
into per-node (or per-relation) buckets.  Scattering with ``np.add.at``
would run numpy's unbuffered per-element loop and re-derive the
destination grouping on every call; this module instead:

- :class:`SegmentLayout` precomputes the sorted-edge/CSR view of one
  segment-id array (stable sort permutation, CSR offsets, counts) so the
  grouping cost is paid once per graph, not once per op call;
- :func:`segment_sum` / :func:`segment_mean` / :func:`segment_max` /
  :func:`segment_softmax` run buffered ``np.add.reduceat`` /
  ``np.maximum.reduceat`` reductions over that layout, with hand-fused
  reverse-mode gradients (a single gather per op instead of a chain of
  autodiff nodes).

Empty segments reduce to 0 for sum/mean/max and to an empty softmax
group; both match the behaviour of scattering into a zero tensor.

The sorted-layout ``reduceat`` kernel is the only row reduction in the
package: ``Tensor.index_select``'s backward accumulates duplicate rows
through :func:`segment_sum_data` as well.  The oracles it is checked
against live in the tests — a one-hot matmul reduction in
``tests/nn/test_segment_ops.py`` and the ``np.add.at`` /
``np.maximum.at`` scatter in ``tests/core/test_compute_plane.py``.
With float64 they agree to ~1e-14 (buffered reductions sum pairwise;
the scatter loop is sequential).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro._obshook import profiled
from repro.nn.tensor import Tensor, ensure_tensor

__all__ = [
    "SegmentLayout",
    "segment_sum",
    "segment_sum_data",
    "segment_mean",
    "segment_max",
    "segment_softmax",
]

class SegmentLayout:
    """Sorted-edge/CSR view of one segment-id array, built once.

    Attributes:
        segments: the original (unsorted) int64 segment id per entry.
        num_segments: size of the output space.
        order: stable permutation sorting entries by segment id.
        counts: entries per segment, shape ``(num_segments,)``.
        indptr: CSR offsets into the sorted entries, ``(num_segments+1,)``.
        nonempty: boolean mask of segments with at least one entry.
        starts: sorted-entry start offset of every non-empty segment
            (exactly the index list ``reduceat`` needs).
    """

    __slots__ = (
        "segments",
        "num_segments",
        "order",
        "counts",
        "indptr",
        "nonempty",
        "starts",
    )

    def __init__(self, segments: np.ndarray, num_segments: int):
        segments = np.asarray(segments, dtype=np.int64).reshape(-1)
        num_segments = int(num_segments)
        if segments.size and (segments.min() < 0 or segments.max() >= num_segments):
            raise ValueError("segment ids out of range")
        self.segments = segments
        self.num_segments = num_segments
        self.order = np.argsort(segments, kind="stable")
        self.counts = np.bincount(segments, minlength=num_segments)
        indptr = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(self.counts, out=indptr[1:])
        self.indptr = indptr
        self.nonempty = self.counts > 0
        self.starts = indptr[:-1][self.nonempty]

    @property
    def num_entries(self) -> int:
        return self.segments.size


LayoutOrSegments = Union[SegmentLayout, np.ndarray]


def _resolve(
    values: np.ndarray, segments: LayoutOrSegments, num_segments: Optional[int]
) -> SegmentLayout:
    """The layout for ``segments``, checked to hold one entry per row of ``values``."""
    if isinstance(segments, SegmentLayout):
        layout = segments
    elif num_segments is None:
        raise ValueError("num_segments is required when no SegmentLayout is given")
    else:
        layout = SegmentLayout(segments, num_segments)
    if values.shape[:1] != (layout.num_entries,):
        raise ValueError(
            f"values have shape {values.shape} but the layout has "
            f"{layout.num_entries} entries (one per row expected)"
        )
    return layout


# ----------------------------------------------------------------------
# raw (non-autodiff) reductions
# ----------------------------------------------------------------------
def _sum_data(values: np.ndarray, layout: SegmentLayout) -> np.ndarray:
    out_shape = (layout.num_segments,) + values.shape[1:]
    out = np.zeros(out_shape, dtype=values.dtype)
    if layout.num_entries:
        out[layout.nonempty] = np.add.reduceat(values[layout.order], layout.starts, axis=0)
    return out


def _max_data(values: np.ndarray, layout: SegmentLayout) -> np.ndarray:
    out_shape = (layout.num_segments,) + values.shape[1:]
    out = np.zeros(out_shape, dtype=values.dtype)
    if layout.num_entries:
        out[layout.nonempty] = np.maximum.reduceat(
            values[layout.order], layout.starts, axis=0
        )
    return out


def _gather(per_segment: np.ndarray, layout: SegmentLayout) -> np.ndarray:
    return per_segment[layout.segments]


def segment_sum_data(
    values: np.ndarray,
    segments: LayoutOrSegments,
    num_segments: Optional[int] = None,
) -> np.ndarray:
    """Raw (non-autodiff) segment sum over plain numpy arrays.

    The kernel behind :func:`segment_sum`, exposed for numeric code that
    never needs gradients (e.g. attention-mass propagation in xERTE).
    """
    values = np.asarray(values)
    return _sum_data(values, _resolve(values, segments, num_segments))


# ----------------------------------------------------------------------
# autodiff ops
# ----------------------------------------------------------------------
@profiled("segment_sum")
def segment_sum(
    values: Tensor,
    segments: LayoutOrSegments,
    num_segments: Optional[int] = None,
) -> Tensor:
    """Sum entries sharing a segment id: out[s] = sum(values[segments == s]).

    ``segments`` may be a raw id array (with ``num_segments``) or a
    precomputed :class:`SegmentLayout` (the compiled-graph fast path).
    """
    values = ensure_tensor(values)
    layout = _resolve(values.data, segments, num_segments)
    out_data = _sum_data(values.data, layout)

    def backward(grad: np.ndarray) -> None:
        out._send(values, _gather(grad, layout))

    out = Tensor._make(out_data, (values,), backward)
    return out


@profiled("segment_mean")
def segment_mean(
    values: Tensor,
    segments: LayoutOrSegments,
    num_segments: Optional[int] = None,
) -> Tensor:
    """Mean of entries per segment; empty segments yield 0."""
    values = ensure_tensor(values)
    layout = _resolve(values.data, segments, num_segments)
    inv = 1.0 / np.maximum(layout.counts, 1).astype(values.dtype)
    scale = inv.reshape((-1,) + (1,) * (values.ndim - 1))
    out_data = _sum_data(values.data, layout) * scale

    def backward(grad: np.ndarray) -> None:
        out._send(values, _gather(grad * scale, layout))

    out = Tensor._make(out_data, (values,), backward)
    return out


@profiled("segment_max")
def segment_max(
    values: Tensor,
    segments: LayoutOrSegments,
    num_segments: Optional[int] = None,
) -> Tensor:
    """Max of entries per segment; empty segments yield 0.

    The gradient splits equally among tied maxima (matching
    :meth:`Tensor.max`) so finite-difference checks stay exact.
    """
    values = ensure_tensor(values)
    layout = _resolve(values.data, segments, num_segments)
    out_data = _max_data(values.data, layout)
    ties = (values.data == _gather(out_data, layout)).astype(values.dtype)
    tie_counts = np.maximum(_sum_data(ties, layout), 1.0)

    def backward(grad: np.ndarray) -> None:
        out._send(values, ties * _gather(grad / tie_counts, layout))

    out = Tensor._make(out_data, (values,), backward)
    return out


@profiled("segment_softmax")
def segment_softmax(
    scores: Tensor,
    segments: LayoutOrSegments,
    num_segments: Optional[int] = None,
) -> Tensor:
    """Softmax over groups of entries sharing a segment id.

    The attention normalisation of ConvGAT/RGAT/LogCL: per-edge scores
    are normalised over the incoming edges of each destination node.
    Forward and backward are fused — one exp, two segment reductions,
    and the classic ``y * (g - sum_seg(y * g))`` Jacobian product —
    instead of the five-node autodiff chain the old implementation
    recorded.
    """
    scores = ensure_tensor(scores)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores (one per entry)")
    layout = _resolve(scores.data, segments, num_segments)
    seg_max = _max_data(scores.data, layout)
    shifted = scores.data - _gather(seg_max, layout)
    exp = np.exp(shifted)
    denom = _sum_data(exp, layout)
    denom[~layout.nonempty] = 1.0
    y = exp / _gather(denom, layout)

    def backward(grad: np.ndarray) -> None:
        weighted = y * grad
        correction = _gather(_sum_data(weighted, layout), layout)
        out._send(scores, weighted - y * correction)

    out = Tensor._make(y, (scores,), backward)
    return out
