"""Functional neural-network operations built from Tensor primitives."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import (
    DTYPE,
    Tensor,
    concat,
    ensure_tensor,
    is_grad_enabled,
    stack,
    where,
)
from repro.nn.segment import segment_max, segment_mean, segment_softmax, segment_sum

__all__ = [
    "softmax",
    "log_softmax",
    "relu",
    "leaky_relu",
    "rrelu",
    "sigmoid",
    "tanh",
    "dropout",
    "linear",
    "embedding",
    "mean_pool",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "concat",
    "stack",
    "where",
    "one_hot",
    "cosine_time_encoding",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return x.leaky_relu(negative_slope)


def rrelu(
    x: Tensor,
    lower: float = 1.0 / 8.0,
    upper: float = 1.0 / 3.0,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Randomized leaky ReLU (the activation HisRES uses in Eqs. 3, 5, 11).

    In training mode the negative slope is sampled uniformly per element
    from ``[lower, upper]``; in evaluation mode the deterministic midpoint
    ``(lower + upper) / 2`` is used, matching PyTorch semantics.
    """
    if training:
        rng = rng if rng is not None else np.random.default_rng()
        slopes = rng.uniform(lower, upper, size=x.shape)
    else:
        slopes = (lower + upper) / 2.0
    negative = x * slopes
    return where(x.data > 0, x, negative)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch convention)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix with sparse-style gradients."""
    return weight.index_select(np.asarray(indices, dtype=np.int64))


def mean_pool(x: Tensor, axis: int = 0) -> Tensor:
    """Mean pooling used in relation updating (Eq. 6)."""
    return x.mean(axis=axis)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Constant one-hot matrix (labels never need gradients)."""
    indices = np.asarray(indices, dtype=np.int64)
    flat = indices.reshape(-1)
    out = np.zeros((flat.size, num_classes), dtype=DTYPE)
    out[np.arange(flat.size), flat] = 1.0
    return out.reshape(indices.shape + (num_classes,))


def cosine_time_encoding(delta: float, weight: Tensor, bias: Tensor) -> Tensor:
    """Periodic time encoding ``cos(w * dt + b)`` from Eq. (1)."""
    return (weight * float(delta) + bias).cos()
