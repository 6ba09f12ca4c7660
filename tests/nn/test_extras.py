"""Schedulers, checkpointing, and the extended loss functions."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from tests.conftest import check_gradients


class TestSchedulers:
    def _opt(self):
        return nn.Adam([Parameter(np.zeros(2))], lr=0.1)

    def test_step_lr_halves(self):
        opt = self._opt()
        sched = nn.StepLR(opt, step_size=2, gamma=0.5)
        lrs = [sched.step() for _ in range(4)]
        assert lrs == [0.1, 0.05, 0.05, 0.025]

    def test_step_lr_invalid_step_size(self):
        with pytest.raises(ValueError):
            nn.StepLR(self._opt(), step_size=0)

    def test_exponential_lr(self):
        opt = self._opt()
        sched = nn.ExponentialLR(opt, gamma=0.5)
        sched.step()
        assert opt.lr == pytest.approx(0.05)
        sched.step()
        assert opt.lr == pytest.approx(0.025)

    def test_warmup_reaches_base(self):
        opt = self._opt()
        sched = nn.WarmupLR(opt, warmup_epochs=3)
        assert opt.lr < 0.1  # starts cold
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_warmup_monotone(self):
        opt = self._opt()
        sched = nn.WarmupLR(opt, warmup_epochs=4)
        lrs = [sched.step() for _ in range(6)]
        assert lrs == sorted(lrs)


class TestCheckpointing:
    def test_roundtrip_with_metadata(self, tmp_path):
        lin = nn.Linear(3, 2)
        path = str(tmp_path / "ckpt.npz")
        nn.save_checkpoint(lin, path, metadata={"epoch": 7, "mrr": 0.4})
        clone = nn.Linear(3, 2)
        meta = nn.load_checkpoint(clone, path)
        assert meta == {"epoch": 7, "mrr": 0.4}
        np.testing.assert_allclose(clone.weight.data, lin.weight.data)

    def test_extension_appended_automatically(self, tmp_path):
        lin = nn.Linear(2, 2)
        base = str(tmp_path / "model")
        nn.save_checkpoint(lin, base)  # numpy appends .npz
        clone = nn.Linear(2, 2)
        nn.load_checkpoint(clone, base)
        np.testing.assert_allclose(clone.weight.data, lin.weight.data)

    def test_mismatched_module_raises(self, tmp_path):
        lin = nn.Linear(3, 2)
        path = str(tmp_path / "c.npz")
        nn.save_checkpoint(lin, path)
        with pytest.raises(nn.CheckpointError, match="missing keys"):
            nn.load_checkpoint(nn.Embedding(4, 4), path)

    def test_empty_metadata_default(self, tmp_path):
        lin = nn.Linear(2, 2)
        path = str(tmp_path / "c.npz")
        nn.save_checkpoint(lin, path)
        assert nn.load_checkpoint(nn.Linear(2, 2), path) == {}


class TestExtendedLosses:
    def test_label_smoothing_interpolates(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        targets = np.array([0, 1, 2, 3])
        plain = nn.cross_entropy(logits, targets).item()
        smooth = nn.cross_entropy_label_smoothing(logits, targets, smoothing=0.0).item()
        assert plain == pytest.approx(smooth)
        heavy = nn.cross_entropy_label_smoothing(logits, targets, smoothing=0.5).item()
        assert heavy != pytest.approx(plain)

    def test_label_smoothing_invalid(self, rng):
        with pytest.raises(ValueError):
            nn.cross_entropy_label_smoothing(
                Tensor(rng.normal(size=(1, 2))), np.array([0]), smoothing=1.0
            )

    def test_label_smoothing_grad(self, rng):
        targets = np.array([1, 0])
        check_gradients(
            lambda l: nn.cross_entropy_label_smoothing(l, targets, 0.2),
            rng.normal(size=(2, 3)),
        )

    def test_margin_ranking_zero_when_separated(self):
        pos = Tensor([5.0, 5.0])
        neg = Tensor([1.0, 1.0])
        assert nn.margin_ranking_loss(pos, neg, margin=1.0).item() == 0.0

    def test_margin_ranking_penalises_violations(self):
        pos = Tensor([1.0])
        neg = Tensor([2.0])
        assert nn.margin_ranking_loss(pos, neg, margin=1.0).item() == pytest.approx(2.0)

    def test_margin_ranking_grad(self, rng):
        check_gradients(
            lambda p, n: nn.margin_ranking_loss(p, n, 0.5),
            rng.normal(size=(4,)),
            rng.normal(size=(4,)) + 0.7,
        )
