"""Checkpoint round-trips and mismatch diagnostics."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import build_model
from repro.core.window import WindowBuilder
from repro.nn.serialization import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_metadata,
    save_checkpoint,
)


class TestRoundTrip:
    @pytest.mark.parametrize("key", ["distmult", "regcn", "hisres"])
    def test_predictions_bitwise_equal(self, key, tiny_dataset, tmp_path):
        """save -> load into a fresh model -> identical predict_entities."""
        model = build_model(key, tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        model.eval()
        path = str(tmp_path / f"{key}.npz")
        save_checkpoint(model, path, metadata={"model": key})

        clone = build_model(key, tiny_dataset.num_entities,
                            tiny_dataset.num_relations, dim=8)
        clone.eval()
        meta = load_checkpoint(clone, path)
        assert meta == {"model": key}

        builder = WindowBuilder(tiny_dataset.num_entities,
                                tiny_dataset.num_relations,
                                history_length=3, use_global=True)
        items = sorted(tiny_dataset.train.facts_by_time().items())
        for _, quads in items[:5]:
            builder.absorb(quads)
        queries = np.array([[s, r, 0, 0] for s in range(4) for r in range(3)],
                           dtype=np.int64)
        window = builder.window_for(queries, prediction_time=int(items[5][0]))
        a = np.asarray(model.predict_entities(window, queries))
        b = np.asarray(clone.predict_entities(window, queries))
        np.testing.assert_array_equal(a, b)  # bitwise, not approx

    def test_dotted_parameter_names_preserved(self, tmp_path):
        model = build_model("hisres", 10, 3, dim=8)
        names = [name for name, _ in model.named_parameters()]
        assert any("." in name for name in names)  # nested modules
        path = str(tmp_path / "nested.npz")
        save_checkpoint(model, path)
        clone = build_model("hisres", 10, 3, dim=8)
        load_checkpoint(clone, path)
        for (na, pa), (nb, pb) in zip(
            sorted(model.named_parameters()), sorted(clone.named_parameters())
        ):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_metadata_round_trip_nested(self, tmp_path):
        lin = nn.Linear(3, 2)
        path = str(tmp_path / "meta.npz")
        metadata = {"window": {"history_length": 4, "use_global": True},
                    "metrics": {"mrr": 0.31}, "model": "x"}
        save_checkpoint(lin, path, metadata=metadata)
        assert read_checkpoint_metadata(path) == metadata
        clone = nn.Linear(3, 2)
        assert load_checkpoint(clone, path) == metadata

    def test_creates_parent_directories(self, tmp_path):
        lin = nn.Linear(2, 2)
        path = str(tmp_path / "deep" / "nested" / "ckpt.npz")
        save_checkpoint(lin, path)
        clone = nn.Linear(2, 2)
        load_checkpoint(clone, path)
        np.testing.assert_array_equal(clone.weight.data, lin.weight.data)


class TestMismatchDiagnostics:
    def test_missing_and_unexpected_keys_listed(self, tmp_path):
        lin = nn.Linear(3, 2)
        path = str(tmp_path / "lin.npz")
        save_checkpoint(lin, path)

        class Other(nn.Module):
            def __init__(self):
                super().__init__()
                self.embedding = nn.Parameter(np.zeros((3, 2)))

        with pytest.raises(CheckpointError) as err:
            load_checkpoint(Other(), path)
        message = str(err.value)
        assert "embedding" in message  # missing from the archive
        assert "weight" in message     # unexpected in the archive
        assert "does not match" in message

    def test_shape_mismatch_lists_both_shapes(self, tmp_path):
        lin = nn.Linear(3, 2)
        path = str(tmp_path / "lin.npz")
        save_checkpoint(lin, path)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(nn.Linear(4, 2), path)
        assert "(2, 3)" in str(err.value) and "(2, 4)" in str(err.value)

    def test_missing_file_is_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(nn.Linear(2, 2), "/nonexistent/ckpt.npz")
        with pytest.raises(CheckpointError, match="not found"):
            read_checkpoint_metadata("/nonexistent/ckpt.npz")

    def test_garbage_file_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(nn.Linear(2, 2), str(path))

    def test_metadata_less_archive_loads_with_empty_meta(self, tmp_path):
        lin = nn.Linear(2, 2)
        path = str(tmp_path / "plain")
        np.savez(path, **lin.state_dict())  # archive without the meta blob
        clone = nn.Linear(2, 2)
        assert load_checkpoint(clone, path + ".npz") == {}
        assert read_checkpoint_metadata(path + ".npz") == {}
