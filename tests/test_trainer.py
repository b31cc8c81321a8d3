"""Trainer tests: schedule, SGD, step semantics, determinism, checkpoints."""
import math

import numpy as np
import pytest

from crfas.augment import AugmentConfig
from crfas.data import SplitSpec, SynthConfig, generate_synthetic, split
from crfas.diffcore import Tape, Tensor
from crfas.losses import loss_overall
from crfas.model import ModelConfig, build_model
from crfas.trainer import (
    CheckpointError,
    _IndexStream,
    MomentumSGD,
    TrainConfig,
    evaluate,
    fit,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train_step,
)

TINY_MODEL = ModelConfig(input_size=16, backbone_channels=(4, 6, 6), feature_side=2, embed_dim=6)


def tiny_config(**overrides):
    defaults = dict(
        batch_size=4,
        epochs=2,
        seed=0,
        model=TINY_MODEL,
        augment=AugmentConfig(psa_grid=2, cutout_frac=0.25),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    cfg = SynthConfig(subjects=6, sessions=3, attacks=("print", "replay"), per_cell=1, side=16, seed=5)
    records = generate_synthetic(cfg, root)
    return root, records


def tiny_batch(rng, n=4, n_labeled=2, dtype=np.float32):
    x1 = Tensor(rng.random((n, 3, 16, 16)).astype(dtype))
    x2 = Tensor(rng.random((n, 3, 16, 16)).astype(dtype))
    labels = np.array([i % 2 for i in range(n_labeled)])
    mask = np.array([i < n_labeled for i in range(n)])
    return x1, x2, labels, mask


class TestSchedule:
    def test_paper_constants(self):
        config = TrainConfig(batch_size=64)
        assert lr_at(0, 100, config) == pytest.approx(0.0075, abs=1e-12)
        assert lr_at(100, 100, config) == pytest.approx(0.0025, abs=1e-12)
        assert lr_at(50, 100, config) == pytest.approx(0.005, abs=1e-12)

    def test_monotone_decay(self):
        config = TrainConfig(batch_size=64)
        values = [lr_at(s, 200, config) for s in range(0, 201, 10)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        config = TrainConfig()
        with pytest.raises(ValueError):
            lr_at(-1, 10, config)
        with pytest.raises(ValueError):
            lr_at(11, 10, config)


class TestTrainStep:
    def test_zero_lr_leaves_params_bitwise(self):
        model = build_model(TINY_MODEL, seed=0)
        config = tiny_config(base_lr_start=0.0, base_lr_end=0.0)
        rng = np.random.default_rng(0)
        before = {name: p.data.copy() for name, p in model.named_params()}
        optimizer = MomentumSGD(model.named_params(), config.momentum, config.weight_decay)
        train_step(model, tiny_batch(rng), config, 0, 10, optimizer)
        for name, p in model.named_params():
            np.testing.assert_array_equal(p.data, before[name])

    def test_all_unlabeled_updates_without_supervised_term(self):
        model = build_model(TINY_MODEL, seed=1)
        config = tiny_config()
        rng = np.random.default_rng(1)
        x1, x2, _, _ = tiny_batch(rng)
        before = {name: p.data.copy() for name, p in model.named_params()}
        optimizer = MomentumSGD(model.named_params(), config.momentum, config.weight_decay)
        bundle = train_step(model, (x1, x2, None, np.zeros(4, dtype=bool)), config, 0, 10, optimizer)
        assert bundle.l_supervised == 0.0
        assert bundle.l_overall == pytest.approx(bundle.l_embedd + config.alpha * bundle.l_pred, rel=1e-6)
        changed = sum(
            0 if np.array_equal(p.data, before[name]) else 1 for name, p in model.named_params()
        )
        assert changed > 0

    def test_swapping_views_leaves_loss_unchanged(self):
        rng = np.random.default_rng(2)
        x1, x2, labels, mask = tiny_batch(rng)
        values = []
        for a, b in ((x1, x2), (x2, x1)):
            model = build_model(TINY_MODEL, seed=2)
            views = model.forward_views(a, b, "train")
            bundle, _ = loss_overall(views, labels, mask, 0.1)
            values.append(bundle.l_overall)
        assert abs(values[0] - values[1]) <= 1e-12

    def test_step_records_fewer_tape_ops_than_two_view_passes(self, monkeypatch):
        # two separate view passes recorded 103 ops at this shape; the 2N
        # batch records each layer once
        recorded = []
        backward = Tape.backward

        def counting_backward(tape, loss):
            recorded.append(len(tape))
            backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", counting_backward)
        model = build_model(TINY_MODEL, seed=4)
        config = tiny_config()
        optimizer = MomentumSGD(model.named_params(), config.momentum, config.weight_decay)
        train_step(model, tiny_batch(np.random.default_rng(4)), config, 0, 10, optimizer)
        assert len(recorded) == 1 and recorded[0] < 103

    def test_weight_decay_shrinks_without_gradient(self):
        model = build_model(TINY_MODEL, seed=3)
        params = model.named_params()
        optimizer = MomentumSGD(params, momentum=0.0, weight_decay=0.1)
        w = params[0][1]
        w.zero_grad()
        before = w.data.copy()
        optimizer.step(lr=1.0)
        np.testing.assert_allclose(w.data, before * (1 - 0.1), rtol=1e-6)

    def test_bn_decay_exclusion_flag(self):
        model = build_model(TINY_MODEL, seed=3)
        params = model.named_params()
        optimizer = MomentumSGD(params, momentum=0.0, weight_decay=0.1, decay_bn_params=False)
        gamma = dict(params)["backbone.b1a.bn.gamma"]
        gamma.zero_grad()
        before = gamma.data.copy()
        optimizer.step(lr=1.0)
        np.testing.assert_array_equal(gamma.data, before)


class TestIndexStream:
    @staticmethod
    def pop_front_oracle(n, seed, counts):
        """The list.pop(0) queue the stream replaced."""
        rng = np.random.default_rng(seed)
        queue, taken = [], []
        for count in counts:
            out = []
            while len(out) < count:
                if not queue:
                    queue = list(rng.permutation(n))
                out.append(queue.pop(0))
            taken.append([int(i) for i in out])
        return taken

    @pytest.mark.parametrize("n", [1, 5, 7])
    def test_same_sequence_as_pop_front_queue(self, n):
        # counts both below and far above n, so takes wrap across several passes
        counts = [3, 1, 12, 0, 7, 20, 2, 5]
        stream = _IndexStream(n, np.random.default_rng(11))
        assert [stream.take(c) for c in counts] == self.pop_front_oracle(n, 11, counts)


class TestFitAndEvaluate:
    def test_fit_is_byte_deterministic(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        outputs = []
        for run in ("runA", "runB"):
            model = build_model(TINY_MODEL, seed=7)
            config = tiny_config(epochs=2, batch_size=4, seed=7)
            final = fit(model, result, config, tmp_path / run, root)
            outputs.append(
                (
                    final.read_bytes(),
                    (tmp_path / run / "train.log").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_fit_requires_labeled_data(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        result.labeled_train = []
        model = build_model(TINY_MODEL, seed=0)
        with pytest.raises(ValueError, match="labeled_train"):
            fit(model, result, tiny_config(), tmp_path / "x", root)

    def test_supervised_only_when_unlabeled_empty(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        assert result.unlabeled_train == []
        model = build_model(TINY_MODEL, seed=8)
        config = tiny_config(epochs=1, seed=8)
        fit(model, result, config, tmp_path / "sup", root)
        log = (tmp_path / "sup" / "train.log").read_text()
        for line in log.splitlines():
            if line.startswith("step="):
                assert "l_supervised=" in line

    def test_loss_log_line_format(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=9)
        fit(model, result, tiny_config(epochs=1, seed=9), tmp_path / "fmt", root)
        lines = [l for l in (tmp_path / "fmt" / "train.log").read_text().splitlines() if l.startswith("step=")]
        assert lines, "no step lines logged"
        fields = [kv.split("=")[0] for kv in lines[0].split()]
        assert fields == ["step", "l_supervised", "l_embedd", "l_pred", "l_overall", "lr"]

    def test_evaluate_deterministic_and_files(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=10)
        final = fit(model, result, tiny_config(epochs=1, seed=10), tmp_path / "train", root)
        for run in ("e1", "e2"):
            evaluate(final, result.test, root, dev_records=result.dev or result.labeled_train,
                     out_dir=tmp_path / run)
        assert (tmp_path / "e1" / "scores.txt").read_bytes() == (tmp_path / "e2" / "scores.txt").read_bytes()
        assert (tmp_path / "e1" / "metrics.txt").exists()

    def test_evaluate_requires_dev_or_threshold(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=11)
        final = fit(model, result, tiny_config(epochs=1, seed=11), tmp_path / "t", root)
        with pytest.raises(ValueError, match="threshold"):
            evaluate(final, result.test, root)

    def test_evaluate_with_extreme_threshold(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=12)
        final = fit(model, result, tiny_config(epochs=1, seed=12), tmp_path / "t2", root)
        summary = evaluate(final, result.test, root, threshold=math.inf)
        assert summary["apcer"] == 1.0 and summary["bpcer"] == 0.0 and summary["acer"] == 0.5

    def test_supervised_loss_trends_down(self, tmp_path):
        # easy set so the short run actually converges
        cfg = SynthConfig(subjects=8, sessions=3, attacks=("print",), per_cell=2, side=24, seed=21,
                          noise_std=0.005, overlay_amp=0.18)
        records = generate_synthetic(cfg, tmp_path / "data")
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model_config = ModelConfig(input_size=24, backbone_channels=(16, 32, 32), feature_side=3, embed_dim=32)
        config = TrainConfig(
            batch_size=8, epochs=40, seed=21, model=model_config,
            augment=AugmentConfig(crop_scale=(0.9, 1.0), cutout_frac=0.125),
        )
        model = build_model(model_config, seed=21)
        final = fit(model, result, config, tmp_path / "run", tmp_path / "data")
        sups = []
        for line in (tmp_path / "run" / "train.log").read_text().splitlines():
            if line.startswith("step="):
                sups.append(float(line.split("l_supervised=")[1].split()[0]))
        tail = max(1, len(sups) // 10)
        assert np.median(sups[-tail:]) < np.median(sups[:tail])
        # scoring the data it converged on should be nearly error-free
        summary = evaluate(final, result.labeled_train, tmp_path / "data", dev_records=result.labeled_train)
        assert summary["acer"] <= 0.1


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build_model(TINY_MODEL, seed=13)
        rng = np.random.default_rng(13)
        model.forward_views(Tensor(rng.random((2, 3, 16, 16), ).astype(np.float32)),
                            Tensor(rng.random((2, 3, 16, 16)).astype(np.float32)), "train")
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        restored = load_checkpoint(p1)
        save_checkpoint(restored, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for (name, a), (_, b) in zip(model.named_params(), restored.named_params()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        for (name, sa), (_, sb) in zip(model.named_bn_states(), restored.named_bn_states()):
            np.testing.assert_array_equal(sa.running_mean, sb.running_mean, err_msg=name)
            assert sb.initialized

    def test_eval_works_after_load(self, tmp_path):
        model = build_model(TINY_MODEL, seed=14)
        rng = np.random.default_rng(14)
        model.forward_views(Tensor(rng.random((2, 3, 16, 16)).astype(np.float32)),
                            Tensor(rng.random((2, 3, 16, 16)).astype(np.float32)), "train")
        save_checkpoint(model, tmp_path / "m.ckpt")
        restored = load_checkpoint(tmp_path / "m.ckpt")
        x = Tensor(rng.random((1, 3, 16, 16)).astype(np.float32))
        np.testing.assert_array_equal(restored.encode(x, "eval").data, model.encode(x, "eval").data)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(TINY_MODEL, seed=15)
        save_checkpoint(model, tmp_path / "m.ckpt")
        raw = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "m.ckpt").write_bytes(raw[:-20])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_mismatched_model_rejected_with_names(self, tmp_path):
        model = build_model(TINY_MODEL, seed=16)
        save_checkpoint(model, tmp_path / "m.ckpt")
        other = build_model(
            ModelConfig(input_size=16, backbone_channels=(6, 8, 8), feature_side=2, embed_dim=8), seed=0
        )
        with pytest.raises(CheckpointError, match="backbone.b1a.conv.weight"):
            load_checkpoint(tmp_path / "m.ckpt", model=other)

    def test_garbage_file_rejected(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(tmp_path / "junk.ckpt")
