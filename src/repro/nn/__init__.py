"""Minimal reverse-mode autodiff neural-network substrate on numpy.

This subpackage replaces PyTorch for the HisRES reproduction.  It provides
a :class:`~repro.nn.tensor.Tensor` with automatic differentiation, the
module/parameter system, common layers (linear, embedding, dropout, GRU
cell, 1-D/2-D convolution), activations including the RReLU and LeakyReLU
used by the paper, weight initialisers, optimisers, and loss functions.

The design goal is *operator parity* with the subset of PyTorch that the
HisRES equations (Eqs. 1-15 of the paper) require, with every operator
covered by finite-difference gradient checks in ``tests/nn``.
"""

from repro.nn.tensor import Tensor, no_grad, is_grad_enabled
from repro.nn import functional
from repro.nn.segment import (
    SegmentLayout,
    segment_sum,
    segment_mean,
    segment_max,
    segment_softmax,
)
from repro.nn.module import Module, Parameter, ModuleList, ModuleDict
from repro.nn.layers import Linear, Embedding, Dropout, Sequential, LayerNorm, BatchNorm1d
from repro.nn.rnn import GRUCell
from repro.nn.conv import Conv1d, Conv2d
from repro.nn.activations import (
    ReLU,
    LeakyReLU,
    RReLU,
    Sigmoid,
    Tanh,
    Softmax,
)
from repro.nn import init
from repro.nn.optim import SGD, Adam, clip_grad_norm_
from repro.nn.schedulers import StepLR, ExponentialLR, WarmupLR
from repro.nn.loss import (
    cross_entropy,
    cross_entropy_label_smoothing,
    margin_ranking_loss,
    binary_cross_entropy_with_logits,
    nll_loss,
)
from repro.nn.serialization import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_metadata,
    save_checkpoint,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "SegmentLayout",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "Module",
    "Parameter",
    "ModuleList",
    "ModuleDict",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "LayerNorm",
    "BatchNorm1d",
    "GRUCell",
    "Conv1d",
    "Conv2d",
    "ReLU",
    "LeakyReLU",
    "RReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "init",
    "SGD",
    "Adam",
    "clip_grad_norm_",
    "StepLR",
    "ExponentialLR",
    "WarmupLR",
    "cross_entropy",
    "cross_entropy_label_smoothing",
    "margin_ranking_loss",
    "binary_cross_entropy_with_logits",
    "nll_loss",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_metadata",
    "CheckpointError",
]
