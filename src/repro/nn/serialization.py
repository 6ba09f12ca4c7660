"""Checkpointing: save/load module state as .npz archives.

A checkpoint holds one array per parameter, keyed by the parameter's
dotted name, plus a JSON metadata blob (``__repro_meta__``).  Loading
is strict: the archive's parameter names, shapes and (float64) dtypes
must match the module's ``state_dict`` exactly, and mismatches raise
:class:`CheckpointError` listing the offending keys instead of failing
deep inside numpy or silently casting.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module

_META_KEY = "__repro_meta__"


class CheckpointError(RuntimeError):
    """A checkpoint could not be read or does not fit the module."""


def _resolve_path(path: str) -> str:
    """Accept paths with or without the .npz suffix np.savez appends."""
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        return path + ".npz"
    return path


def _open_archive(path: str):
    resolved = _resolve_path(path)
    if not os.path.exists(resolved):
        raise CheckpointError(f"checkpoint not found: {path!r}")
    try:
        return np.load(resolved, allow_pickle=False)
    except Exception as exc:  # zipfile/numpy raise several types here
        raise CheckpointError(f"cannot read checkpoint {resolved!r}: {exc}") from exc


def save_checkpoint(module: Module, path: str, metadata: Optional[Dict] = None) -> None:
    """Write a module's parameters (plus JSON metadata) to ``path``.

    The archive holds one array per parameter keyed by its dotted name,
    and a JSON metadata blob (training epoch, config, metrics, …).
    Parent directories are created as needed.
    """
    payload = module.state_dict()
    payload[_META_KEY] = np.frombuffer(
        json.dumps(dict(metadata or {})).encode("utf-8"), dtype=np.uint8
    )
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    # np.savez requires keys to be valid; dotted names are fine
    np.savez(path, **payload)


def read_checkpoint_metadata(path: str) -> Dict:
    """Return a checkpoint's metadata dict without touching any module.

    Used by the serving layer to discover the model key / vocabulary
    sizes / window configuration before the module is even built.
    """
    with _open_archive(path) as archive:
        if _META_KEY not in archive.files:
            return {}
        try:
            return json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt metadata in {path!r}: {exc}") from exc


def load_checkpoint(module: Module, path: str) -> Dict:
    """Restore parameters saved by :func:`save_checkpoint`.

    Returns the metadata dict.  Raises :class:`CheckpointError` when the
    archive's parameter names, shapes or dtypes do not exactly match the
    module's ``state_dict``, listing every missing / unexpected /
    mis-shaped / mis-typed key; shape and dtype mismatches are reported
    together.  Values are copied into the module's existing float64
    parameters.  A ``dtype`` metadata key written by older checkpoints
    is returned like any other.
    """
    with _open_archive(path) as archive:
        metadata = {}
        if _META_KEY in archive.files:
            try:
                metadata = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(f"corrupt metadata in {path!r}: {exc}") from exc
        state = {k: archive[k] for k in archive.files if k != _META_KEY}

    own = module.state_dict()
    missing = sorted(set(own) - set(state))
    unexpected = sorted(set(state) - set(own))
    if missing or unexpected:
        raise CheckpointError(
            f"checkpoint {path!r} does not match module "
            f"{type(module).__name__}: "
            f"missing keys {missing or '[]'}; unexpected keys {unexpected or '[]'}"
        )
    bad_shapes = [
        f"{name}: checkpoint {state[name].shape} vs module {own[name].shape}"
        for name in own
        if state[name].shape != own[name].shape
    ]
    bad_dtypes = [
        f"{name}: checkpoint {state[name].dtype} vs module {own[name].dtype}"
        for name in own
        if state[name].dtype != own[name].dtype
    ]
    problems = []
    if bad_shapes:
        problems.append("shape mismatches: " + "; ".join(bad_shapes))
    if bad_dtypes:
        problems.append("dtype mismatches: " + "; ".join(bad_dtypes))
    if problems:
        raise CheckpointError(f"checkpoint {path!r} has " + " | ".join(problems))
    module.load_state_dict(state)
    return metadata
