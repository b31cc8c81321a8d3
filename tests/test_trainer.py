"""Trainer tests: schedule, SGD, step semantics, determinism, checkpoints."""
import json
import math
import re
import shutil

import numpy as np
import pytest

from crfas import trainer
from crfas.augment import AugmentConfig, compose_views
from crfas.config import to_dict
from crfas.data import ManifestError, SplitSpec, SynthConfig, generate_synthetic, load_image, split, write_image
from crfas.diffcore import Tape, Tensor
from crfas.losses import loss_overall
from crfas.metrics import error_rates
from crfas.model import ModelConfig, build_model
from crfas.trainer import (
    WEIGHT_DECAY,
    CheckpointError,
    _checkpoint_entries,
    _row_order,
    MomentumSGD,
    TrainConfig,
    evaluate,
    fit,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    score_records,
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
    x1 = Tensor(rng.random((n, 16, 16, 3)).astype(dtype))
    x2 = Tensor(rng.random((n, 16, 16, 3)).astype(dtype))
    labels = np.array([i % 2 for i in range(n_labeled)], dtype=int)
    return x1, x2, labels


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
    def test_zero_lr_leaves_params_bitwise(self, monkeypatch):
        monkeypatch.setattr(trainer, "LR_START", 0.0)
        monkeypatch.setattr(trainer, "LR_END", 0.0)
        model = build_model(TINY_MODEL, seed=0)
        config = tiny_config()
        rng = np.random.default_rng(0)
        before = {name: p.data.copy() for name, p in model.named_params()}
        optimizer = MomentumSGD(model.named_params())
        train_step(model, tiny_batch(rng), config, 0, lr_at(0, 10, config), optimizer)
        for name, p in model.named_params():
            np.testing.assert_array_equal(p.data, before[name])

    def test_all_unlabeled_updates_without_supervised_term(self):
        model = build_model(TINY_MODEL, seed=1)
        config = tiny_config()
        rng = np.random.default_rng(1)
        batch = tiny_batch(rng, n_labeled=0)
        before = {name: p.data.copy() for name, p in model.named_params()}
        optimizer = MomentumSGD(model.named_params())
        bundle = train_step(model, batch, config, 0, lr_at(0, 10, config), optimizer)
        assert bundle.l_supervised == 0.0
        assert bundle.l_overall == pytest.approx(bundle.l_embedd + config.alpha * bundle.l_pred, rel=1e-6)
        changed = sum(
            0 if np.array_equal(p.data, before[name]) else 1 for name, p in model.named_params()
        )
        assert changed > 0

    def test_swapping_views_leaves_loss_unchanged(self):
        rng = np.random.default_rng(2)
        x1, x2, labels = tiny_batch(rng)
        values = []
        for a, b in ((x1, x2), (x2, x1)):
            model = build_model(TINY_MODEL, seed=2)
            views = model.forward_views(a, b)
            bundle, _ = loss_overall(views, labels, 0.1)
            values.append(bundle.l_overall)
        assert abs(values[0] - values[1]) <= 1e-12

    def test_step_records_fewer_tape_ops_than_two_view_passes(self, monkeypatch):
        recorded = []
        backward = Tape.backward

        def counting_backward(tape, loss):
            recorded.append(len(tape))
            backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", counting_backward)
        model = build_model(TINY_MODEL, seed=4)
        config = tiny_config()
        optimizer = MomentumSGD(model.named_params())
        train_step(model, tiny_batch(np.random.default_rng(4)), config, 0, lr_at(0, 10, config), optimizer)
        assert recorded == [42]

    def test_weight_decay_shrinks_without_gradient(self):
        # the velocity starts at zero, so momentum does not enter the first step
        model = build_model(TINY_MODEL, seed=3)
        params = model.named_params()
        optimizer = MomentumSGD(params)
        w = params[0][1]
        w.zero_grad()
        before = w.data.copy()
        optimizer.step(lr=1.0)
        np.testing.assert_allclose(w.data, before * (1 - WEIGHT_DECAY), rtol=1e-6)

    def test_two_steps_use_the_paper_momentum_and_weight_decay(self):
        # literal 0.9 and 1e-4, so a changed MOMENTUM or WEIGHT_DECAY fails here
        model = build_model(TINY_MODEL, seed=3, dtype="f64")
        params = model.named_params()
        optimizer = MomentumSGD(params)
        w = params[0][1]
        w0 = w.data.copy()
        g = np.random.default_rng(3).standard_normal(w.shape)
        w.grad = g.copy()
        optimizer.step(lr=0.5)
        v1 = g + 1e-4 * w0
        w1 = w0 - 0.5 * v1
        w.grad = g.copy()
        optimizer.step(lr=0.5)
        np.testing.assert_allclose(w.data, w1 - 0.5 * (0.9 * v1 + g + 1e-4 * w1), rtol=1e-12)


class TestIndexStream:
    @staticmethod
    def pop_front_oracle(n, seed, counts):
        """A list.pop(0) queue, refilled with a fresh permutation when empty."""
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
        order = _row_order(n, sum(counts), 11)
        ends = np.cumsum(counts).tolist()
        assert [order[end - c : end] for c, end in zip(counts, ends)] == self.pop_front_oracle(n, 11, counts)


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

    def test_one_augmentation_call_per_step(self, tiny_data, tmp_path, monkeypatch):
        # labeled and unlabeled rows of a step are augmented in one call
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 0.5}))
        assert result.unlabeled_train
        rows_per_call = []

        def counting(images, *args):
            rows_per_call.append(len(images))
            return compose_views(images, *args)

        monkeypatch.setattr(trainer, "compose_views", counting)
        # one step per epoch: every labeled record fits in half a batch
        config = tiny_config(epochs=2, batch_size=2 * len(result.labeled_train), labeled_fraction_per_batch=0.5)
        fit(build_model(TINY_MODEL, seed=3), result, config, tmp_path / "run", root)
        steps = (tmp_path / "run" / "train.log").read_text().count("\nstep=")
        assert steps == 2
        assert rows_per_call == [config.batch_size] * steps

    def test_fit_leaves_config_log_and_one_checkpoint(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=6)
        final = fit(model, result, tiny_config(epochs=2, seed=6), tmp_path / "run", root)
        assert final == tmp_path / "run" / "checkpoint.ckpt"
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["checkpoint.ckpt", "config.json", "train.log"]

    def test_f64_model_trains_in_f64(self, tiny_data, tmp_path):
        # precision is the model's: a default config does not force f32 images on it
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=5, dtype="f64")
        final = fit(model, result, tiny_config(epochs=1, seed=5), tmp_path / "run", root)
        restored = load_checkpoint(final)
        assert all(p.dtype == np.float64 for _, p in restored.named_params())
        for (name, a), (_, b) in zip(model.named_params(), restored.named_params()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_fit_requires_labeled_data(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        result.labeled_train = []
        model = build_model(TINY_MODEL, seed=0)
        with pytest.raises(ValueError, match="labeled_train"):
            fit(model, result, tiny_config(), tmp_path / "x", root)

    def test_bad_augment_config_rejected_before_any_output(self, tiny_data, tmp_path):
        # validation runs before fit writes anything, not at the first batch
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        config = tiny_config(augment=AugmentConfig(psa_grid=2, cutout_frac=1.5))
        with pytest.raises(ValueError, match="cutout_frac"):
            fit(build_model(TINY_MODEL, seed=0), result, config, tmp_path / "x", root)
        assert not (tmp_path / "x" / "config.json").exists()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"alpha": -0.1}, "alpha"),
            ({"alpha": math.nan}, "alpha"),
        ],
    )
    def test_out_of_range_optimizer_fields_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**overrides).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            tiny_config(seed=-1).validate()

    def test_optimizer_range_edges_accepted(self):
        tiny_config(alpha=0.0).validate()

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

    def test_metrics_file_reports_dev_eer_and_apcer_per_type(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=16)
        final = fit(model, result, tiny_config(epochs=1, seed=16), tmp_path / "train", root)
        dev = result.dev or result.labeled_train
        summary = evaluate(final, result.test, root, dev_records=dev, out_dir=tmp_path / "eval")
        dev_scored = score_records(load_checkpoint(final), dev, root)
        assert summary["dev_eer"] == error_rates(dev_scored, summary["threshold"]).hter
        types = sorted({r.attack_type for r in result.test if r.label == "spoof"})
        assert types == ["print", "replay"]
        by_type = {t: summary[f"apcer_{t}"] for t in types}
        assert by_type == error_rates(score_records(load_checkpoint(final), result.test, root), summary["threshold"]).apcer_by_type
        assert summary["apcer"] == max(by_type.values())
        lines = (tmp_path / "eval" / "metrics.txt").read_text().splitlines()
        assert [line.split("=")[0] for line in lines] == [
            "threshold", "dev_eer", "apcer", "bpcer", "acer", "hter", "auc", "apcer_print", "apcer_replay",
        ]
        assert f"dev_eer={summary['dev_eer']!r}" in lines

    def test_evaluate_requires_dev_or_threshold(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=11)
        final = fit(model, result, tiny_config(epochs=1, seed=11), tmp_path / "t", root)
        with pytest.raises(ValueError, match="threshold"):
            evaluate(final, result.test, root)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({}, "no dev samples"), ({"dev_records": []}, "no dev samples"), ({"threshold": math.nan}, "NaN")],
        ids=["neither", "empty_dev", "nan_threshold"],
    )
    def test_evaluate_rejects_arguments_before_reading_the_checkpoint(self, tmp_path, kwargs, match):
        # the checkpoint does not exist, so reading it would raise CheckpointError
        with pytest.raises(ValueError, match=match):
            evaluate(tmp_path / "missing.ckpt", [], tmp_path, **kwargs)

    def test_evaluate_with_extreme_threshold(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 1.0}))
        model = build_model(TINY_MODEL, seed=12)
        final = fit(model, result, tiny_config(epochs=1, seed=12), tmp_path / "t2", root)
        summary = evaluate(final, result.test, root, threshold=math.inf)
        assert summary["apcer"] == 1.0 and summary["bpcer"] == 0.0 and summary["acer"] == 0.5
        # no dev set, so no dev equal-error point
        assert "dev_eer" not in summary and summary["apcer_print"] == summary["apcer_replay"] == 1.0

    def test_score_is_mean_of_the_records_classifier_map(self, tiny_data):
        root, records = tiny_data
        model = build_model(TINY_MODEL, seed=13)
        rng = np.random.default_rng(13)
        x = Tensor(rng.random((2, 16, 16, 3)).astype(np.float32))
        model.forward_views(x, x)  # fills the batch-norm running statistics
        chunk = records[:5]
        scored = score_records(model, chunk, root)
        maps = model.classifier(model.encode(Tensor(np.stack([load_image(r, root) for r in chunk]))))
        assert [s.path for s in scored] == [r.path for r in chunk]
        assert [s.score for s in scored] == [float(m.mean()) for m in maps.data]

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


def data_with_one_24px_image(root, record, tmp_path):
    """A copy of the 16 px data set in which `record`'s image is 24 px."""
    copy = tmp_path / "data"
    shutil.copytree(root, copy)
    write_image(copy / record.path, np.zeros((24, 24, 3), dtype=np.uint8))
    return copy


class TestImageShape:
    def test_wrong_size_training_image_rejected_before_any_step(self, tiny_data, tmp_path):
        root, records = tiny_data
        result = split(records, SplitSpec(1, {"label_fraction": 0.5}))
        bad = result.labeled_train[-1]
        data_root = data_with_one_24px_image(root, bad, tmp_path)
        with pytest.raises(ManifestError, match=re.escape(bad.path)):
            fit(build_model(TINY_MODEL, seed=0), result, tiny_config(), tmp_path / "train", data_root)
        assert not (tmp_path / "train").exists()

    def test_wrong_size_test_image_rejected(self, tiny_data, tmp_path):
        root, records = tiny_data
        bad = records[-1]
        data_root = data_with_one_24px_image(root, bad, tmp_path)
        model = build_model(TINY_MODEL, seed=1)
        x = Tensor(np.random.default_rng(1).random((2, 16, 16, 3)).astype(np.float32))
        model.forward_views(x, x)  # fills the batch-norm running statistics
        save_checkpoint(model, tmp_path / "m.ckpt")
        with pytest.raises(ManifestError, match=re.escape(bad.path)):
            evaluate(tmp_path / "m.ckpt", records, data_root, threshold=0.0)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build_model(TINY_MODEL, seed=13)
        rng = np.random.default_rng(13)
        model.forward_views(Tensor(rng.random((2, 16, 16, 3)).astype(np.float32)),
                            Tensor(rng.random((2, 16, 16, 3)).astype(np.float32)))
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
        model.forward_views(Tensor(rng.random((2, 16, 16, 3)).astype(np.float32)),
                            Tensor(rng.random((2, 16, 16, 3)).astype(np.float32)))
        save_checkpoint(model, tmp_path / "m.ckpt")
        restored = load_checkpoint(tmp_path / "m.ckpt")
        x = Tensor(rng.random((1, 16, 16, 3)).astype(np.float32))
        np.testing.assert_array_equal(restored.encode(x).data, model.encode(x).data)

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
        other = ModelConfig(input_size=16, backbone_channels=(6, 8, 8), feature_side=2, embed_dim=8)
        self._with_arch_line(tmp_path / "m.ckpt", json.dumps(to_dict(other), sort_keys=True))
        with pytest.raises(CheckpointError, match="backbone.b1a.conv.weight"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_garbage_file_rejected(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(tmp_path / "junk.ckpt")

    @staticmethod
    def _randomized_checkpoint(path, seed):
        """A tiny model whose every tensor holds distinct values, saved to `path`."""
        model = build_model(TINY_MODEL, seed=seed)
        rng = np.random.default_rng(seed)
        for _, p in model.named_params():
            p.data[...] = rng.standard_normal(p.shape)
        for _, state in model.named_bn_states():
            state.running_mean[...] = rng.standard_normal(state.running_mean.shape)
            state.running_var[...] = rng.uniform(0.5, 2.0, state.running_var.shape)
            state.initialized = True
        save_checkpoint(model, path)
        return model

    @staticmethod
    def _same_tensors(a, b):
        return all(np.array_equal(x, y) for (_, x), (_, y) in zip(_checkpoint_entries(a), _checkpoint_entries(b)))

    def test_swapped_offsets_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self._randomized_checkpoint(path, seed=18)
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        i = next(k for k, line in enumerate(lines) if line.startswith(b"tensor backbone.b1a.bn.gamma "))
        assert lines[i + 1].startswith(b"tensor backbone.b1a.bn.beta ")
        (head_g, off_g), (head_b, off_b) = (lines[k].rsplit(b" ", 1) for k in (i, i + 1))
        assert len(off_g) == len(off_b)
        lines[i], lines[i + 1] = head_g + b" " + off_b, head_b + b" " + off_g
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="backbone.b1a.bn.gamma"):
            load_checkpoint(path)

    def test_reordered_tensor_lines_rejected(self, tmp_path):
        # swap two adjacent tensor lines and recompute their offsets: the table
        # still tiles the data and the CRC still matches, but each name now
        # points at the other tensor's values
        path = tmp_path / "m.ckpt"
        self._randomized_checkpoint(path, seed=24)
        lines = path.read_bytes().split(b"\n")
        i = next(k for k, line in enumerate(lines) if line.startswith(b"tensor backbone.b1a.bn.gamma "))
        gamma, beta = (lines[k].split(b" ") for k in (i, i + 1))
        assert beta[1] == b"backbone.b1a.bn.beta" and gamma[2:4] == beta[2:4]
        lines[i], lines[i + 1] = b" ".join(beta[:4] + gamma[4:]), b" ".join(gamma[:4] + beta[4:])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="backbone.b1a.bn"):
            load_checkpoint(path)

    def test_header_byte_mutations_raise_or_load_identical_tensors(self, tmp_path):
        original = self._randomized_checkpoint(tmp_path / "m.ckpt", seed=19)
        raw = (tmp_path / "m.ckpt").read_bytes()
        header_end = raw.index(b"\n", raw.index(b"\ndata ") + 1) + 1
        path = tmp_path / "mutated.ckpt"
        silent = []
        for i in range(header_end):
            for byte in b"0 \xff":
                path.write_bytes(raw[:i] + bytes([byte]) + raw[i + 1 :])
                try:
                    loaded = load_checkpoint(path)
                except CheckpointError:
                    continue
                if not self._same_tensors(loaded, original):
                    silent.append((i, chr(byte)))
        assert not silent, f"{len(silent)} mutations loaded different tensors, first {silent[:5]}"

    def test_data_byte_flips_rejected(self, tmp_path):
        self._randomized_checkpoint(tmp_path / "m.ckpt", seed=20)
        raw = (tmp_path / "m.ckpt").read_bytes()
        data_start = raw.index(b"\n", raw.index(b"\ndata ") + 1) + 1
        path = tmp_path / "flipped.ckpt"
        silent = []
        for i in range(data_start, len(raw)):
            path.write_bytes(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1 :])
            try:
                load_checkpoint(path)
            except CheckpointError as e:
                assert "crc32" in str(e)
                continue
            silent.append(i - data_start)
        assert len(raw) - data_start > 5000
        assert not silent, f"{len(silent)} flipped data bytes loaded, first {silent[:5]}"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: None,
            lambda line: line + b"\n" + line,
            lambda line: line[:6] + line[6:].upper(),
            lambda line: line[:-1],
            lambda line: line + b"0",
            lambda line: line.replace(b"crc32 ", b"crc32  "),
        ],
        ids=["missing", "repeated", "uppercase", "short", "long", "spaced"],
    )
    def test_malformed_crc_line_rejected(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        self._randomized_checkpoint(path, seed=21)
        header, sep, data = path.read_bytes().partition(b"\ndata ")
        head, _, crc_line = header.rpartition(b"\n")
        edited = edit(crc_line)
        assert crc_line.startswith(b"crc32 ") and edited != crc_line
        path.write_bytes(head + (b"" if edited is None else b"\n" + edited) + sep + data)
        with pytest.raises(CheckpointError, match="crc32|unexpected header line"):
            load_checkpoint(path)

    def test_v1_file_rejected_by_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self._randomized_checkpoint(path, seed=22)
        raw = path.read_bytes()
        assert raw.startswith(b"CRFAS-CKPT v2\n")
        # a v1 file: the old magic and no crc32 line
        head, _, rest = raw.partition(b"\ncrc32 ")
        path.write_bytes(b"CRFAS-CKPT v1" + head[len(b"CRFAS-CKPT v2"):] + rest[rest.index(b"\n"):])
        with pytest.raises(CheckpointError, match="CRFAS-CKPT v1"):
            load_checkpoint(path)

    def test_stray_bias_before_batch_norm_rejected(self, tmp_path, monkeypatch):
        model = build_model(TINY_MODEL, seed=23)
        entries = _checkpoint_entries(model)
        stray = ("backbone.b1a.conv.bias", np.zeros(TINY_MODEL.backbone_channels[0], dtype=np.float32))
        monkeypatch.setattr(trainer, "_checkpoint_entries", lambda m: entries[:1] + [stray] + entries[1:])
        save_checkpoint(model, tmp_path / "m.ckpt")
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match=r"unexpected tensors \['backbone.b1a.conv.bias'\]"):
            load_checkpoint(tmp_path / "m.ckpt")

    @staticmethod
    def _with_arch_line(path, arch_json):
        magic, _, rest = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([magic, b"arch " + arch_json.encode(), rest]))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda arch: json.dumps(arch, sort_keys=True)[:-1], "bad arch line"),
            (lambda arch: json.dumps({k: v for k, v in arch.items() if k != "embed_dim"}, sort_keys=True),
             "does not echo back"),
            (lambda arch: json.dumps({**arch, "embed_dim": "6"}, sort_keys=True), "embed_dim must be int"),
            (lambda arch: json.dumps({**arch, "feature_side": 3}, sort_keys=True), "feature side"),
        ],
        ids=["bad_json", "missing_field", "mistyped_field", "bad_geometry"],
    )
    def test_malformed_arch_line_rejected(self, tmp_path, edit, match):
        model = build_model(TINY_MODEL, seed=17)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        self._with_arch_line(path, edit(to_dict(TINY_MODEL)))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_repeated_arch_line_rejected(self, tmp_path):
        # tensor shapes do not depend on input_size or feature_side, so a
        # second line saying 24 px would otherwise rebuild a 24 px model
        model = build_model(TINY_MODEL, seed=18)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        magic, arch, rest = path.read_bytes().split(b"\n", 2)
        other = json.dumps({**to_dict(TINY_MODEL), "input_size": 24, "feature_side": 3}, sort_keys=True)
        path.write_bytes(b"\n".join([magic, arch, b"arch " + other.encode(), rest]))
        with pytest.raises(CheckpointError, match="repeated arch line"):
            load_checkpoint(path)
