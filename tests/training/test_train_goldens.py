"""Float64 bitwise goldens for the backward pass of a short training run.

``train_goldens.npz`` holds the final parameters of HisRES and RE-GCN
after a fixed-seed, few-step :class:`~repro.training.Trainer` run on
``unit_tiny``.  Every optimiser step consumes gradients from the segment
kernels (ConvGAT's ``segment_softmax``, relation pooling's
``segment_mean``, CompGCN's ``segment_sum``) and from the embedding
``index_select`` backward, so any change to how those reductions order
their floating-point additions shows up here.  Parameters must match
**bitwise**; this is the gradient fence the forward-only decode goldens
do not provide.

Regenerate with ``PYTHONPATH=src python tests/training/test_train_goldens.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines import MODEL_REGISTRY, build_model
from repro.data.profiles import PROFILES
from repro.data.synthetic import SyntheticTKGGenerator
from repro.training import Trainer, seed_everything

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "train_goldens.npz")
KEYS = ("hisres", "regcn")
DIM, SEED, STEPS = 8, 3, 4


def final_parameters(key):
    """Parameters of ``key`` after ``STEPS`` seeded optimiser steps."""
    dataset = SyntheticTKGGenerator(PROFILES["unit_tiny"]).generate()
    seed_everything(SEED)
    model = build_model(key, dataset.num_entities, dataset.num_relations, dim=DIM)
    spec = MODEL_REGISTRY[key]
    trainer = Trainer(
        model,
        dataset,
        history_length=2,
        use_global=spec.requirements.global_graph,
        learning_rate=0.01,
        seed=SEED,
        health=False,
    )
    # the first ``history_length`` timestamps only fill the window
    trainer.train_epoch(max_timestamps=2 + STEPS)
    return {f"{key}/{name}": np.array(p.data) for name, p in model.named_parameters()}


@pytest.fixture(scope="module")
def goldens():
    with np.load(GOLDEN_PATH) as archive:
        return {name: np.array(archive[name]) for name in archive.files}


@pytest.mark.parametrize("key", KEYS)
def test_trained_parameters_bitwise(key, goldens):
    params = final_parameters(key)
    expected = {name for name in goldens if name.startswith(f"{key}/")}
    assert set(params) == expected
    for name, value in params.items():
        assert value.dtype == np.float64, name
        assert np.array_equal(value, goldens[name]), f"{name} drifted"


if __name__ == "__main__":
    arrays = {}
    for model_key in KEYS:
        arrays.update(final_parameters(model_key))
    np.savez_compressed(GOLDEN_PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN_PATH}")
