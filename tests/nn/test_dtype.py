"""The float64 engine: every tensor, initialiser, gradient, optimizer
state and checkpoint is float64, and a checkpoint of any other dtype is
refused rather than adopted or cast."""

import json

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import init
from repro.nn.serialization import CheckpointError, load_checkpoint, save_checkpoint
from repro.nn.tensor import DTYPE, Tensor, ensure_tensor


def _write_archive(path, arrays, meta=None):
    """An ``.npz`` written straight, bypassing :func:`save_checkpoint`."""
    payload = dict(arrays)
    if meta is not None:
        payload["__repro_meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **payload)


class TestDefaultDtype:
    def test_float64_is_the_default(self):
        assert DTYPE == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64
        assert ensure_tensor(3).data.dtype == np.float64

    def test_threads_through_init_and_modules(self):
        assert init.xavier_uniform((4, 4)).dtype == np.float64
        assert init.xavier_normal((4, 4)).dtype == np.float64
        assert init.kaiming_uniform((4, 4)).dtype == np.float64
        assert init.uniform((4,)).dtype == np.float64
        assert init.zeros((3,)).dtype == np.float64
        assert init.ones((3,)).dtype == np.float64
        lin = nn.Linear(3, 2)
        assert lin.weight.data.dtype == np.float64
        emb = nn.Embedding(5, 4)
        assert emb.weight.data.dtype == np.float64
        assert F.one_hot(np.array([1]), 3).dtype == np.float64

    def test_float32_inputs_compute_in_float64(self):
        lin = nn.Linear(4, 2)
        out = lin(Tensor(np.ones((3, 4), dtype=np.float32)))
        assert out.data.dtype == np.float64
        (out * out).sum().backward()
        assert lin.weight.grad.dtype == np.float64

    def test_optimizer_preserves_param_dtype(self):
        lin = nn.Linear(4, 2)
        opt = nn.Adam(lin.parameters(), lr=0.01)
        loss = (lin(Tensor(np.ones((3, 4)))) ** 2).sum()
        loss.backward()
        opt.step()
        assert lin.weight.data.dtype == np.float64
        assert all(m.dtype == np.float64 for m in opt._m)
        assert all(v.dtype == np.float64 for v in opt._v)


class TestCheckpointDtype:
    def test_restore_dtype_false_raises_on_mismatch(self, tmp_path):
        # the strict load is the only load: a float32 archive is refused
        lin = nn.Linear(5, 3)
        path = str(tmp_path / "f32.npz")
        _write_archive(path, {k: v.astype(np.float32) for k, v in lin.state_dict().items()})
        with pytest.raises(CheckpointError, match="dtype mismatches"):
            load_checkpoint(nn.Linear(5, 3), path)

    def test_dtype_and_shape_mismatches_reported_together(self, tmp_path):
        lin = nn.Linear(5, 3)
        path = str(tmp_path / "f32.npz")
        _write_archive(path, {k: v.astype(np.float32) for k, v in lin.state_dict().items()})
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(nn.Linear(4, 3), path)
        message = str(err.value)
        assert "shape mismatches" in message
        assert "dtype mismatches" in message

    def test_matching_dtype_loads_with_restore_dtype_false(self, tmp_path):
        lin = nn.Linear(5, 3)
        path = str(tmp_path / "f64.npz")
        save_checkpoint(lin, path)
        clone = nn.Linear(5, 3)
        load_checkpoint(clone, path)
        np.testing.assert_array_equal(clone.weight.data, lin.weight.data)
        assert clone.weight.data.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
    def test_non_float64_archive_is_refused(self, tmp_path, dtype):
        """Arrays of another dtype are refused, naming every key, even
        when the metadata claims float64; the module is left untouched."""
        source = nn.Linear(5, 3)
        path = str(tmp_path / "other.npz")
        _write_archive(
            path,
            {k: v.astype(dtype) for k, v in source.state_dict().items()},
            meta={"dtype": "float64"},
        )
        target = nn.Linear(5, 3)
        before = target.state_dict()
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(target, path)
        message = str(err.value)
        assert "dtype mismatches" in message
        name = np.dtype(dtype).name
        for key in before:
            assert f"{key}: checkpoint {name} vs module float64" in message
        for key, values in target.state_dict().items():
            assert values.dtype == np.float64
            np.testing.assert_array_equal(values, before[key])

    def test_dtype_mismatches_name_each_key_beside_shape_mismatch(self, tmp_path):
        path = str(tmp_path / "mixed.npz")
        _write_archive(
            path,
            {
                "weight": np.zeros((3, 4), dtype=np.float16),  # module has (3, 5)
                "bias": np.zeros(3, dtype=np.int64),
            },
        )
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(nn.Linear(5, 3), path)
        message = str(err.value)
        assert "shape mismatches: weight: checkpoint (3, 4) vs module (3, 5)" in message
        assert "weight: checkpoint float16 vs module float64" in message
        assert "bias: checkpoint int64 vs module float64" in message

    def test_checkpoint_with_legacy_dtype_metadata_loads(self, tmp_path):
        """Checkpoints that recorded ``meta["dtype"]`` still load; the key
        comes back as plain metadata."""
        lin = nn.Linear(5, 3)
        path = str(tmp_path / "legacy.npz")
        save_checkpoint(lin, path, metadata={"dtype": "float64", "epoch": 2})
        clone = nn.Linear(5, 3)
        assert load_checkpoint(clone, path) == {"dtype": "float64", "epoch": 2}
        np.testing.assert_array_equal(clone.weight.data, lin.weight.data)

    def test_save_records_no_dtype(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        save_checkpoint(nn.Linear(2, 2), path, metadata={"epoch": 1})
        assert nn.read_checkpoint_metadata(path) == {"epoch": 1}
