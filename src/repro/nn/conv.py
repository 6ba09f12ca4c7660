"""Convolution layers implemented with im2col on numpy.

ConvTransE (the HisRES decoder) uses a 1-D convolution over the stacked
subject/relation embeddings; ConvE (a static baseline) uses a 2-D
convolution over a reshaped "image" of the embeddings.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Conv1d(Module):
    """1-D convolution with 'same'-style integer padding.

    Forward/backward are expressed through matmul on an im2col layout so
    the autograd engine handles gradients without a bespoke backward.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size))
        )
        if bias:
            bound = 1.0 / np.sqrt(in_channels * kernel_size)
            self.bias: Optional[Parameter] = Parameter(init.uniform((out_channels,), -bound, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, length = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        out_length = length + 2 * self.padding - self.kernel_size + 1

        # Build the gather indices that map the padded input to columns.
        pad_len = length + 2 * self.padding
        base = np.arange(out_length)[:, None] + np.arange(self.kernel_size)[None, :]
        chan = np.arange(channels)[:, None, None]
        # flat index into (channels, pad_len)
        flat_index = (chan * pad_len + base[None]).transpose(1, 0, 2).reshape(out_length, -1)

        # Pad via concat of zero tensors to stay inside autograd.
        if self.padding:
            zeros = Tensor(np.zeros((batch, channels, self.padding)))
            from repro.nn.tensor import concat

            x = concat([zeros, x, zeros], axis=2)
        cols = x.reshape(batch, channels * pad_len)[:, flat_index.reshape(-1)]
        cols = cols.reshape(batch, out_length, channels * self.kernel_size)

        kernel_matrix = self.weight.reshape(self.out_channels, channels * self.kernel_size)
        out = cols @ kernel_matrix.T  # (batch, out_length, out_channels)
        out = out.transpose(0, 2, 1)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1)
        return out


class Conv2d(Module):
    """2-D convolution (for the ConvE baseline decoder)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        kh, kw = kernel_size
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kh, kw)))
        if bias:
            bound = 1.0 / np.sqrt(in_channels * kh * kw)
            self.bias: Optional[Parameter] = Parameter(init.uniform((out_channels,), -bound, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, height, width = x.shape
        kh, kw = self.kernel_size
        pad = self.padding
        out_h = height + 2 * pad - kh + 1
        out_w = width + 2 * pad - kw + 1
        pad_h, pad_w = height + 2 * pad, width + 2 * pad

        if pad:
            from repro.nn.tensor import concat

            zeros_h = Tensor(np.zeros((batch, channels, pad, width)))
            x = concat([zeros_h, x, zeros_h], axis=2)
            zeros_w = Tensor(np.zeros((batch, channels, pad_h, pad)))
            x = concat([zeros_w, x, zeros_w], axis=3)

        rows = (np.arange(out_h)[:, None] + np.arange(kh)[None, :]).reshape(-1)
        cols = (np.arange(out_w)[:, None] + np.arange(kw)[None, :]).reshape(-1)
        # index grid: (out_h*kh, out_w*kw) flat positions into (pad_h, pad_w)
        grid = rows[:, None] * pad_w + cols[None, :]
        grid = grid.reshape(out_h, kh, out_w, kw).transpose(0, 2, 1, 3).reshape(out_h * out_w, kh * kw)
        chan_offsets = (np.arange(channels) * pad_h * pad_w)[:, None, None]
        flat_index = (grid[None] + chan_offsets).transpose(1, 0, 2).reshape(out_h * out_w, -1)

        flat = x.reshape(batch, channels * pad_h * pad_w)[:, flat_index.reshape(-1)]
        patches = flat.reshape(batch, out_h * out_w, channels * kh * kw)
        kernel_matrix = self.weight.reshape(self.out_channels, channels * kh * kw)
        out = patches @ kernel_matrix.T  # (batch, out_h*out_w, out_channels)
        out = out.transpose(0, 2, 1).reshape(batch, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1)
        return out
