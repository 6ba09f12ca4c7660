"""Weight initialisers (Xavier/Glorot and friends)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.tensor import DTYPE

_DEFAULT_RNG = np.random.default_rng(0)
_rng = _DEFAULT_RNG


def set_rng(rng: np.random.Generator) -> None:
    """Install the generator used by all initialisers (for seeding)."""
    global _rng
    _rng = rng


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[1], shape[0]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def xavier_uniform(shape: Tuple[int, ...], gain: float = 1.0, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Glorot uniform initialisation; the paper's default for embeddings."""
    rng = rng if rng is not None else _rng
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def xavier_normal(shape: Tuple[int, ...], gain: float = 1.0, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    rng = rng if rng is not None else _rng
    fan_in, fan_out = _fans(shape)
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(shape: Tuple[int, ...], a: float = np.sqrt(5.0), rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He uniform, matching torch.nn.Linear's default reset."""
    rng = rng if rng is not None else _rng
    fan_in, _ = _fans(shape)
    gain = np.sqrt(2.0 / (1.0 + a * a))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: Tuple[int, ...], low: float = -0.1, high: float = 0.1, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    rng = rng if rng is not None else _rng
    return rng.uniform(low, high, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DTYPE)
